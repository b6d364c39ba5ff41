package repro

import "repro/internal/parafac2"

// MethodID names a registered decomposition algorithm for WithMethod. The
// four algorithms of the paper ship registered; Methods lists everything the
// registry currently knows (including future registrations).
type MethodID string

const (
	// MethodDPar2 is the paper's method: two-stage randomized-SVD
	// compression + ALS iterations whose cost is independent of the slice
	// heights. The default when no WithMethod option is given.
	MethodDPar2 MethodID = "dpar2"
	// MethodRDALS is the RD-ALS baseline (Cheng & Haardt 2019).
	MethodRDALS MethodID = "rd-als"
	// MethodALS is classical PARAFAC2-ALS (Kiers et al. 1999).
	MethodALS MethodID = "als"
	// MethodSPARTan is the SPARTan-style baseline (Perros et al. 2017)
	// adapted to dense data.
	MethodSPARTan MethodID = "spartan"
)

// Methods returns the canonical names of every registered algorithm, in the
// paper's legend order.
func Methods() []string { return parafac2.MethodNames() }

// jobSpec is the resolved per-call request an Engine executes: the
// canonical serializable Spec (method + the nine deterministic knobs),
// starting at DefaultSpec, plus the Progress callback, which deliberately
// does NOT travel with a Spec. Requests arriving over a transport
// (internal/service) never carry one; in-process callers layer WithProgress
// over any Spec. Options mutate the jobSpec; the Engine materializes a
// Config and pins it to the shared pool afterwards (a per-call Pool/Threads
// cannot override the Engine's — that is the point of the Engine).
type jobSpec struct {
	spec     Spec
	progress func(iter int, measure float64) bool
}

// Option configures one decomposition request (Engine.Decompose, a submitted
// Job, Engine.Compress, Engine.NewStream). Options apply in order over
// DefaultSpec, which is the same on every Engine; a later option wins, so
// a WithSpec goes before the options that adjust it. The resolved request
// is validated as a whole (method name and knob ranges, see
// parafac2.Config.CheckKnobs): an invalid value surfaces as an error from
// the call it was passed to, before any work starts — the per-call half of
// the repository's validation rule. (EngineOptions, which configure
// NewEngine itself, panic on invalid values instead: a misconfigured engine
// is a programming error, not a request to fail.)
type Option func(*jobSpec)

// WithMethod selects the algorithm (default MethodDPar2). The name is
// resolved against the registry, so aliases the CLI accepts ("rdals",
// "parafac2-als") work too.
func WithMethod(m MethodID) Option {
	return func(j *jobSpec) { j.spec.Method = m }
}

// WithRank sets the target rank R (positive).
func WithRank(r int) Option {
	return func(j *jobSpec) { j.spec.Rank = r }
}

// WithMaxIters bounds the ALS iterations (positive; the paper uses 32).
func WithMaxIters(n int) Option {
	return func(j *jobSpec) { j.spec.MaxIters = n }
}

// WithTolerance sets the relative convergence tolerance (finite, >= 0; 0
// runs MaxIters iterations unconditionally).
func WithTolerance(tol float64) Option {
	return func(j *jobSpec) { j.spec.Tol = tol }
}

// WithSeed sets the seed driving factor initialization and randomized
// sketches. Two runs with identical options and tensor are bit-identical.
func WithSeed(seed uint64) Option {
	return func(j *jobSpec) { j.spec.Seed = seed }
}

// WithOversample sets the randomized-SVD oversampling parameter (0 to 2³²;
// DPar2 only).
func WithOversample(p int) Option {
	return func(j *jobSpec) { j.spec.Oversample = p }
}

// WithShardRows sets the stage-1 sharding threshold (DPar2 only): slices
// with more than n rows are sketched in row shards of at most n rows (floored
// at the sketch width rank+oversample), run as independent work units on the
// Engine's pool, and merged by a second small randomized SVD. n = 0 means
// the DefaultShardRows threshold (64k rows); negative disables sharding. Sharding changes neither the factor contract
// nor reproducibility — a fixed (tensor, options) pair is still
// bit-identical across runs and pool widths — but bounds per-shard stage-1
// scratch by O(n·(rank+oversample)) and lets one tall slice use the whole
// pool.
func WithShardRows(n int) Option {
	return func(j *jobSpec) { j.spec.ShardRows = n }
}

// WithPowerIters sets the randomized-SVD power-iteration count (0 to
// parafac2.MaxPowerIters; DPar2 only).
func WithPowerIters(q int) Option {
	return func(j *jobSpec) { j.spec.PowerIters = q }
}

// WithRidge adds λ·I to the Gram matrices of the normal-equation solves
// (finite, >= 0).
func WithRidge(lambda float64) Option {
	return func(j *jobSpec) { j.spec.Ridge = lambda }
}

// WithNonnegativeS constrains the S_k weights to be nonnegative.
func WithNonnegativeS() Option {
	return func(j *jobSpec) { j.spec.NonnegativeS = true }
}

// WithProgress registers a per-iteration callback, the one observation hook
// on a run: it receives the 1-based iteration number and that iteration's
// convergence measure (record them to trace convergence). Returning false
// stops the iteration early (a graceful stop — unlike context cancellation
// it is not an error). Called from the decomposition goroutine. A call with
// a callback bypasses the result cache, so the callback always runs.
func WithProgress(fn func(iter int, measure float64) bool) Option {
	return func(j *jobSpec) { j.progress = fn }
}
