package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// LoadedPackage is one type-checked target package ready for analysis.
type LoadedPackage struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Imports lists the package's direct imports (all of them, targets and
	// dependencies alike); ComputeSummaries uses it to order packages
	// bottom-up so callee summaries exist before their callers need them.
	Imports []string
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// LoadPatterns resolves package patterns with the go tool and type-checks the
// matched (non-dependency) packages from source. Dependencies — standard
// library included — are consumed as compiled export data from the build
// cache via `go list -export`, which works fully offline. Test files are not
// loaded: the invariants reprolint enforces live in shipped code.
func LoadPatterns(dir string, patterns ...string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s (%s): %w", strings.Join(patterns, " "), strings.TrimSpace(stderr.String()), err)
	}

	exportFiles := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exportFiles[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Name != "" {
			cp := p
			targets = append(targets, &cp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		ef, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (is the package built?)", path)
		}
		return os.Open(ef)
	}

	var out []*LoadedPackage
	for _, t := range targets {
		lp, err := typeCheckListed(fset, t, lookup)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

func typeCheckListed(fset *token.FileSet, t *listedPackage, lookup func(string) (io.ReadCloser, error)) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		path := filepath.Join(t.Dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", name, err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	imports := append([]string(nil), t.Imports...)
	sort.Strings(imports)
	info := NewInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(error) {}, // collect-and-continue; first error surfaces below
	}
	pkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
	}
	return &LoadedPackage{
		Path:    t.ImportPath,
		Fset:    fset,
		Files:   files,
		Pkg:     pkg,
		Info:    info,
		Imports: imports,
	}, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
