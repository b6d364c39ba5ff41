// Package compute is a miniature stand-in for repro/internal/compute used by
// the analyzer fixture tests: the analyzers match Arena/Pool methods by
// package-path suffix and type name (see isPkgPath), so this shim exercises
// the same matching logic the real package does without importing the full
// dependency graph into fixtures.
package compute

// Dense stands in for mat.Dense.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// Arena mirrors the real arena's Get/GetUninit/Put surface.
type Arena struct{}

func (a *Arena) Get(r, c int) *Dense       { return &Dense{Rows: r, Cols: c} }
func (a *Arena) GetUninit(r, c int) *Dense { return &Dense{Rows: r, Cols: c} }
func (a *Arena) Put(ms ...*Dense)          {}

// Pool mirrors the real pool's blocking dispatch surface.
type Pool struct{}

func (p *Pool) Claim(n int, body func(lane, i int))         {}
func (p *Pool) ParallelFor(n int, body func(i int))         {}
func (p *Pool) ParallelRanges(n int, body func(lo, hi int)) {}
func (p *Pool) RunPartitioned(parts int, body func(part int)) {
}
