package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReadCSVMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	if err := os.WriteFile(path, []byte("1, 2.5, -3\n4,5,6\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := readCSVMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 1) != 2.5 || m.At(1, 2) != 6 || m.At(0, 2) != -3 {
		t.Fatalf("values wrong: %v", m)
	}
}

func TestReadCSVMatrixErrors(t *testing.T) {
	dir := t.TempDir()
	ragged := filepath.Join(dir, "ragged.csv")
	os.WriteFile(ragged, []byte("1,2\n3,4,5\n"), 0o644)
	if _, err := readCSVMatrix(ragged); err == nil {
		t.Fatal("expected ragged-row error")
	}
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("1,x\n"), 0o644)
	if _, err := readCSVMatrix(bad); err == nil {
		t.Fatal("expected parse error")
	}
	empty := filepath.Join(dir, "empty.csv")
	os.WriteFile(empty, []byte("\n"), 0o644)
	if _, err := readCSVMatrix(empty); err == nil {
		t.Fatal("expected empty-file error")
	}
	if _, err := readCSVMatrix(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("expected not-found error")
	}
}

func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "b.csv"), []byte("1,2\n3,4\n5,6\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "a.csv"), []byte("7,8\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "ignore.txt"), []byte("zzz"), 0o644)
	ten, err := loadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ten.K() != 2 || ten.J != 2 {
		t.Fatalf("K=%d J=%d", ten.K(), ten.J)
	}
	// Sorted by name: a.csv first.
	if ten.Slices[0].Rows != 1 || ten.Slices[1].Rows != 3 {
		t.Fatalf("slice order wrong: %d, %d rows", ten.Slices[0].Rows, ten.Slices[1].Rows)
	}
	if _, err := loadCSVDir(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

func TestLoadTensorGenerated(t *testing.T) {
	ten, err := loadTensor("", "random", 1, 12, 8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ten.K() != 3 || ten.J != 8 {
		t.Fatalf("random tensor K=%d J=%d", ten.K(), ten.J)
	}
	ten, err = loadTensor("", "lowrank", 1, 30, 15, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ten.K() != 4 || ten.J != 15 {
		t.Fatalf("lowrank tensor K=%d J=%d", ten.K(), ten.J)
	}
	if _, err := loadTensor("", "no-such-dataset", 1, 1, 1, 1, 0); err == nil {
		t.Fatal("expected unknown-dataset error")
	}
	// Sizes the generators cannot build are errors, not panics.
	for _, c := range []struct {
		data    string
		i, j, k int
	}{
		{"lowrank", 200, 100, 0},  // no slices
		{"random", 200, 100, 0},   // no slices
		{"random", 0, 100, 50},    // zero-row slices
		{"lowrank", 1, 100, 50},   // heights drawn from [0, 1]
		{"lowrank", 200, 100, -1}, // negative slice count
		{"random", 200, 0, 50},    // no columns
	} {
		if _, err := loadTensor("", c.data, 1, c.i, c.j, c.k, 0.05); err == nil {
			t.Errorf("-data %s -I %d -J %d -K %d: expected a size error", c.data, c.i, c.j, c.k)
		}
	}
}
