// Command reprolint runs the repository's invariant analyzers (package
// repro/internal/analyzers) over Go packages:
//
//	reprolint [-run analyzer,analyzer] [-json] [-gha] [packages...]
//
// With no package arguments it checks ./... . Findings print one per line as
//
//	file:line:col: [analyzer] message
//
// (or one JSON object per line with -json). The final line is always the
// machine-readable gate summary, matching scripts/benchsmoke.sh's convention:
//
//	{"gate":"reprolint","findings":N,"suppressions":M,"pass":true|false}
//
// -gha additionally emits GitHub Actions ::error annotations so findings
// render inline on pull requests. Exit status: 0 clean, 1 findings, 2 usage
// or load failure.
//
// Suppress a finding with a //repro:allow(analyzer) directive carrying a
// mandatory reason; reason-less or unused directives are themselves findings.
// See docs/INVARIANTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runList  = flag.String("run", "", "comma-separated analyzer subset (default: all)")
		jsonOut  = flag.Bool("json", false, "emit one JSON object per finding")
		ghaOut   = flag.Bool("gha", false, "emit GitHub Actions ::error annotations alongside findings")
		listOnly = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reprolint [-run analyzer,...] [-json] [-gha] [packages...]\n\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *listOnly {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := analyzers.ByName(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.LoadPatterns(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		return 2
	}

	table := analyzers.ComputeSummaries(pkgs)

	cwd, _ := os.Getwd()
	findings, suppressions := 0, 0
	for _, lp := range pkgs {
		var diags []analyzers.Diagnostic
		ran := map[string]bool{}
		for _, a := range selected {
			if a.AppliesTo != nil && !a.AppliesTo(lp.Path) {
				continue
			}
			ran[a.Name] = true
			a.Run(&analyzers.Pass{
				Fset:      lp.Fset,
				Files:     lp.Files,
				Pkg:       lp.Pkg,
				Info:      lp.Info,
				Report:    func(d analyzers.Diagnostic) { diags = append(diags, d) },
				Summaries: table,
			})
		}
		// Suppression directives are validated even in packages where no
		// selected analyzer ran (a stale //repro:allow is a finding anywhere),
		// but unused-ness is only judged for analyzers that ran here.
		kept, used := analyzers.Filter(lp.Fset, lp.Files, diags, ran)
		suppressions += used
		for _, d := range kept {
			findings++
			pos := lp.Fset.Position(d.Pos)
			file := pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			if *jsonOut {
				enc, _ := json.Marshal(map[string]any{
					"gate":     "reprolint",
					"analyzer": d.Analyzer,
					"file":     file,
					"line":     pos.Line,
					"col":      pos.Column,
					"message":  d.Message,
				})
				fmt.Println(string(enc))
			} else {
				fmt.Printf("%s:%d:%d: [%s] %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
			}
			if *ghaOut {
				fmt.Printf("::error file=%s,line=%d,col=%d,title=reprolint %s::%s\n",
					file, pos.Line, pos.Column, d.Analyzer, ghaEscape(d.Message))
			}
		}
	}

	gate, _ := json.Marshal(map[string]any{
		"gate":         "reprolint",
		"findings":     findings,
		"suppressions": suppressions,
		"pass":         findings == 0,
	})
	fmt.Println(string(gate))

	if findings > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", findings)
		}
		return 1
	}
	return 0
}

// ghaEscape encodes the characters GitHub Actions workflow commands reserve
// in annotation messages.
func ghaEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
