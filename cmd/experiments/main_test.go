package main

import (
	"slices"
	"testing"

	"repro/internal/experiments"
)

// all8 names the Table II datasets in print order.
var all8 = []string{"FMA", "Urban", "US Stock", "KR Stock", "Activity", "Action", "Traffic", "PEMS-SF"}

// documented lists every output the usage comment names, in -all order,
// with the Table II datasets it reads.
var documented = []struct {
	kind, name string
	datasets   []string
}{
	{"table", "2", all8},
	{"fig", "8", []string{"US Stock", "KR Stock"}},
	{"fig", "1", all8},
	{"fig", "9", all8},
	{"fig", "10", all8},
	{"fig", "11a", nil},
	{"fig", "11b", nil},
	{"fig", "11c", nil},
	{"fig", "tall", nil},
	{"fig", "12", []string{"US Stock", "KR Stock"}},
	{"table", "3", []string{"US Stock"}},
}

func kindNames(outs []output) []string {
	var ns []string
	for _, o := range outs {
		ns = append(ns, o.kind+" "+o.name)
	}
	return ns
}

func TestChooseSelectsDocumentedOutputs(t *testing.T) {
	for _, d := range documented {
		fig, table := "", ""
		if d.kind == "fig" {
			fig = d.name
		} else {
			table = d.name
		}
		picked, _, err := choose(false, fig, table, "test")
		if err != nil || len(picked) != 1 || picked[0].kind != d.kind || picked[0].name != d.name {
			t.Fatalf("-%s %s selects %v (err %v)", d.kind, d.name, kindNames(picked), err)
		}
		if !slices.Equal(picked[0].datasets, d.datasets) {
			t.Fatalf("-%s %s reads datasets %q, want %q", d.kind, d.name, picked[0].datasets, d.datasets)
		}
	}

	all, sc, err := choose(true, "", "", "bench")
	if err != nil || sc != experiments.ScaleBench {
		t.Fatalf("-all: scale %v, err %v", sc, err)
	}
	var want []string
	for _, d := range documented {
		want = append(want, d.kind+" "+d.name)
	}
	if got := kindNames(all); !slices.Equal(got, want) {
		t.Fatalf("-all selects %v, want %v", got, want)
	}

	both, sc, err := choose(false, "12", "3", "test")
	if got := kindNames(both); err != nil || sc != experiments.ScaleTest || !slices.Equal(got, []string{"fig 12", "table 3"}) {
		t.Fatalf("-fig 12 -table 3 selects %v at scale %v (err %v)", got, sc, err)
	}
}

func TestChooseRejectsUnknownNames(t *testing.T) {
	for _, c := range []struct {
		all               bool
		fig, table, scale string
	}{
		{false, "99", "", "bench"},
		{false, "", "7", "bench"},
		{false, "2", "", "bench"},
		{false, "", "1", "bench"},
		{false, "12", "", "tset"},
		{true, "", "", "tset"},
		{true, "99", "", "bench"},
		{false, "12", "7", "bench"},
		{false, "", "", "bench"},
	} {
		if picked, _, err := choose(c.all, c.fig, c.table, c.scale); err == nil {
			t.Errorf("choose(%+v) = %v, want an error", c, kindNames(picked))
		}
	}
}
