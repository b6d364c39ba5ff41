package repro

import (
	"fmt"

	"repro/internal/parafac2"
)

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
// canonical serializable Spec (method + the nine deterministic knobs) plus
// the Progress callback, which deliberately does NOT travel with a Spec.
// Requests arriving over a transport (internal/service) never carry one;
// in-process callers layer WithProgress over any Spec. Options mutate the
// jobSpec; the Engine materializes a Config and pins it to the shared pool
// afterwards (a per-call Pool/Threads cannot override the Engine's — that is
// the point of the Engine).
type jobSpec struct {
	spec     Spec
	progress func(iter int, measure float64) bool
}

// Option configures one decomposition request (Engine.Decompose, a submitted
// Job, Engine.Compress, Engine.NewStream). Options apply in order over the
// Engine's base Config; a later option wins. An invalid option surfaces as an
// error from the call it was passed to, before any work starts — the
// per-call half of the repository's validation rule. (EngineOptions, which
// configure NewEngine itself, panic on invalid values instead: a
// misconfigured engine is a programming error, not a request to fail.)
type Option func(*jobSpec) error

// WithMethod selects the algorithm (default MethodDPar2). The name is
// resolved against the registry at run time, so aliases the CLI accepts
// ("rdals", "parafac2-als") work too.
func WithMethod(m MethodID) Option {
	return func(j *jobSpec) error {
		if _, err := parafac2.MustLookup(string(m)); err != nil {
			return err
		}
		j.spec.Method = m
		return nil
	}
}

// WithRank sets the target rank R.
func WithRank(r int) Option {
	return func(j *jobSpec) error {
		if r <= 0 {
			return fmt.Errorf("repro: WithRank(%d): rank must be positive", r)
		}
		j.spec.Rank = r
		return nil
	}
}

// WithMaxIters bounds the ALS iterations (the paper uses 32).
func WithMaxIters(n int) Option {
	return func(j *jobSpec) error {
		if n <= 0 {
			return fmt.Errorf("repro: WithMaxIters(%d): must be positive", n)
		}
		j.spec.MaxIters = n
		return nil
	}
}

// WithTolerance sets the relative convergence tolerance (0 runs MaxIters
// iterations unconditionally).
func WithTolerance(tol float64) Option {
	return func(j *jobSpec) error {
		if tol < 0 {
			return fmt.Errorf("repro: WithTolerance(%g): must be >= 0", tol)
		}
		j.spec.Tol = tol
		return nil
	}
}

// WithSeed sets the seed driving factor initialization and randomized
// sketches. Two runs with identical options and tensor are bit-identical.
func WithSeed(seed uint64) Option {
	return func(j *jobSpec) error {
		j.spec.Seed = seed
		return nil
	}
}

// WithOversample sets the randomized-SVD oversampling parameter (DPar2 only).
func WithOversample(p int) Option {
	return func(j *jobSpec) error {
		if p < 0 {
			return fmt.Errorf("repro: WithOversample(%d): must be >= 0", p)
		}
		j.spec.Oversample = p
		return nil
	}
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
	return func(j *jobSpec) error {
		j.spec.ShardRows = n
		return nil
	}
}

// WithPowerIters sets the randomized-SVD power-iteration count (DPar2 only).
func WithPowerIters(q int) Option {
	return func(j *jobSpec) error {
		if q < 0 {
			return fmt.Errorf("repro: WithPowerIters(%d): must be >= 0", q)
		}
		j.spec.PowerIters = q
		return nil
	}
}

// WithRidge adds λ·I to the Gram matrices of the normal-equation solves.
func WithRidge(lambda float64) Option {
	return func(j *jobSpec) error {
		if lambda < 0 {
			return fmt.Errorf("repro: WithRidge(%g): must be >= 0", lambda)
		}
		j.spec.Ridge = lambda
		return nil
	}
}

// WithNonnegativeS constrains the S_k weights to be nonnegative.
func WithNonnegativeS() Option {
	return func(j *jobSpec) error {
		j.spec.NonnegativeS = true
		return nil
	}
}

// WithProgress registers a per-iteration callback, the one observation hook
// on a run: it receives the 1-based iteration number and that iteration's
// convergence measure (record them to trace convergence). Returning false
// stops the iteration early (a graceful stop — unlike context cancellation
// it is not an error). Called from the decomposition goroutine. A call with
// a callback bypasses the result cache, so the callback always runs.
func WithProgress(fn func(iter int, measure float64) bool) Option {
	return func(j *jobSpec) error {
		j.progress = fn
		return nil
	}
}
