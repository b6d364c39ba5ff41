package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools' analysistest on the
// standard library only: each testdata/src/<pkg> directory is parsed and
// type-checked (std imports resolved from GOROOT source, local stand-in
// packages like "compute" from sibling fixture directories), the analyzer
// under test runs, findings pass through the same //repro:allow Filter the
// driver uses, and the result is matched against `// want` expectations:
//
//	code() // want `regexp` `another regexp`
//	// want-next `regexp`     <- expectation for the NEXT line (used when the
//	//                           finding lands on a comment-only line)
//
// Every finding must be wanted and every want must be found.

var fixtureTests = []struct {
	analyzer *Analyzer
	dir      string
}{
	{AnalyzerDeterminism, "determinismtest"},
	{AnalyzerArenaPair, "arenapairtest"},
	{AnalyzerCtxLoop, "ctxlooptest"},
	{AnalyzerNoAlloc, "noalloctest"},
	{AnalyzerLockHold, "lockholdtest"},
	{AnalyzerGoroLeak, "goroleaktest"},
	{AnalyzerLockOrder, "lockordertest"},
	{AnalyzerErrDisc, "errdisctest"},
}

func TestFixtures(t *testing.T) {
	for _, tt := range fixtureTests {
		t.Run(tt.analyzer.Name, func(t *testing.T) {
			runFixture(t, tt.analyzer, tt.dir)
		})
	}
}

func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	files, pkg, info := loadFixturePkg(t, fset, dir)

	// The fixture package gets the same interprocedural treatment as a real
	// run: its own summaries are computed (stand-in packages like "compute"
	// stay external, i.e. trusted), so interprocedural fixture cases exercise
	// the summary plumbing end to end.
	lp := &LoadedPackage{Path: dir, Fset: fset, Files: files, Pkg: pkg, Info: info}
	table := ComputeSummaries([]*LoadedPackage{lp})

	var diags []Diagnostic
	a.Run(&Pass{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		Info:      info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
		Summaries: table,
	})
	diags, _ = Filter(fset, files, diags, map[string]bool{a.Name: true})

	wants := collectWants(t, fset, files)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s:%d: [%s] %s", filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding at %s:%d: want match for %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var (
	wantRe     = regexp.MustCompile("^//\\s*want((?:\\s+`[^`]*`)+)\\s*$")
	wantNextRe = regexp.MustCompile("^//\\s*want-next((?:\\s+`[^`]*`)+)\\s*$")
	wantArgRe  = regexp.MustCompile("`([^`]*)`")
)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := fset.Position(c.Pos()).Line
				text := c.Text
				var body string
				if m := wantNextRe.FindStringSubmatch(text); m != nil {
					line, body = line+1, m[1]
				} else if m := wantRe.FindStringSubmatch(text); m != nil {
					body = m[1]
				} else {
					continue
				}
				for _, arg := range wantArgRe.FindAllStringSubmatch(body, -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", fset.Position(c.Pos()).Filename, line, arg[1], err)
					}
					out = append(out, want{file: fset.Position(c.Pos()).Filename, line: line, re: re})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// fixtureImporter resolves std packages from GOROOT source and fixture
// stand-in packages (bare import paths like "compute") from testdata/src.
type fixtureImporter struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.cache[path]; ok {
		return p, nil
	}
	if strings.Contains(path, "/") || !fixtureDirExists(path) {
		return fi.std.Import(path)
	}
	files, pkg, _ := loadFixtureRaw(fi.t, fi.fset, path, fi)
	_ = files
	fi.cache[path] = pkg
	return pkg, nil
}

func fixtureDir(dir string) string { return filepath.Join("testdata", "src", dir) }

func fixtureDirExists(dir string) bool {
	st, err := os.Stat(fixtureDir(dir))
	return err == nil && st.IsDir()
}

func loadFixturePkg(t *testing.T, fset *token.FileSet, dir string) ([]*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fi := &fixtureImporter{
		t:     t,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*types.Package{},
	}
	return loadFixtureRaw(t, fset, dir, fi)
}

func loadFixtureRaw(t *testing.T, fset *token.FileSet, dir string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info) {
	t.Helper()
	glob := filepath.Join(fixtureDir(dir), "*.go")
	names, err := filepath.Glob(glob)
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files match %s: %v", glob, err)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	info := NewInfo()
	pkg, err := conf.Check(dir, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v\n%s", dir, err, strings.Join(typeErrs, "\n"))
	}
	return files, pkg, info
}

// TestByName pins the registry surface the driver depends on.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 8, nil", len(all), err)
	}
	two, err := ByName("goroleak, lockorder")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset failed: %v (%d)", err, len(two))
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
	want := []string{"determinism", "arenapair", "ctxloop", "noalloc", "lockhold", "goroleak", "lockorder", "errdisc"}
	if got := Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestIsPkgPath pins the fixture/real-path matching contract.
func TestIsPkgPath(t *testing.T) {
	cases := []struct {
		path, pkg string
		want      bool
	}{
		{"compute", "compute", true},
		{"repro/internal/compute", "compute", true},
		{"example.com/x/compute", "compute", true},
		{"repro/internal/computed", "compute", false},
		{"rng", "compute", false},
	}
	for _, c := range cases {
		if got := isPkgPath(c.path, c.pkg); got != c.want {
			t.Errorf("isPkgPath(%q, %q) = %v, want %v", c.path, c.pkg, got, c.want)
		}
	}
}
