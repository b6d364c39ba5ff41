package main

import (
	"slices"
	"testing"

	"repro/internal/experiments"
)

// documented lists every output the usage comment names, in -all order,
// with whether it reads the Table II datasets.
var documented = []struct {
	kind, name string
	datasets   bool
}{
	{"table", "2", true},
	{"fig", "8", true},
	{"fig", "1", true},
	{"fig", "9", true},
	{"fig", "10", true},
	{"fig", "11a", false},
	{"fig", "11b", false},
	{"fig", "11c", false},
	{"fig", "tall", false},
	{"fig", "12", true},
	{"table", "3", true},
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
		if picked[0].datasets != d.datasets {
			t.Fatalf("-%s %s reads datasets = %v, want %v", d.kind, d.name, picked[0].datasets, d.datasets)
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
