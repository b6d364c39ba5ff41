package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectedBugsThroughRealLoading proves each new analyzer non-vacuous end
// to end: a throwaway module with planted bugs goes through the real pipeline
// — `go list -export` resolving stdlib dependencies as compiled export data,
// source type-checking, cross-package summary computation — and every planted
// bug must surface. The fixture harness cannot substitute for this: it
// type-checks stand-in packages from source and never exercises export-data
// loading or cross-package summary propagation.
func TestInjectedBugsThroughRealLoading(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write("go.mod", "module injected.example/bugs\n\ngo 1.24\n")
	// inner: the callee side of every interprocedural bug. Spin has no join
	// surface; BA acquires the package locks in back-to-front order.
	write("inner/inner.go", `package inner

import "sync"

var (
	MuA sync.Mutex
	MuB sync.Mutex

	n int
)

// Spin has no WaitGroup, channel, or context surface.
func Spin() {
	for {
		n++
	}
}

// BA acquires B then A.
func BA() {
	MuB.Lock()
	MuA.Lock()
	n++
	MuA.Unlock()
	MuB.Unlock()
}
`)
	// Root package: each planted bug is only visible through inner's summary
	// (or its types) across the package boundary.
	write("bugs.go", `package bugs

import (
	"fmt"

	"injected.example/bugs/inner"
)

// LeakSpin spawns a goroutine whose leak only shows in inner.Spin's summary.
func LeakSpin() {
	go inner.Spin()
}

// AB acquires A then B; inner.BA does the reverse — the cycle spans packages.
func AB() {
	inner.MuA.Lock()
	inner.MuB.Lock()
	inner.MuB.Unlock()
	inner.MuA.Unlock()
}

// Wrap flattens the error it is handed.
func Wrap(err error) error {
	return fmt.Errorf("boom: %v", err)
}
`)

	pkgs, err := LoadPatterns(dir, "./...")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	table := ComputeSummaries(pkgs)

	ran := make(map[string]bool)
	for _, n := range Names() {
		ran[n] = true
	}
	var diags []Diagnostic
	for _, lp := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range All() {
			a.Run(&Pass{
				Fset:      lp.Fset,
				Files:     lp.Files,
				Pkg:       lp.Pkg,
				Info:      lp.Info,
				Report:    func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
				Summaries: table,
			})
		}
		pkgDiags, _ = Filter(lp.Fset, lp.Files, pkgDiags, ran)
		diags = append(diags, pkgDiags...)
	}

	found := func(analyzer, substr string) bool {
		for _, d := range diags {
			if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
				return true
			}
		}
		return false
	}
	for _, want := range []struct{ analyzer, substr string }{
		{"goroleak", "goroutine running Spin has no join evidence"},
		{"lockorder", "lock-order cycle"},
		{"errdisc", "flattens an error value with %v"},
	} {
		if !found(want.analyzer, want.substr) {
			for _, d := range diags {
				t.Logf("got %s: [%s] %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
			}
			t.Fatalf("planted %s bug not reported (want message containing %q)", want.analyzer, want.substr)
		}
	}
}
