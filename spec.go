package repro

import (
	"fmt"

	"repro/internal/parafac2"
)

// Spec is the canonical, serializable description of one decomposition
// request: the algorithm plus the nine deterministic knobs that fully
// determine the computed bits for a given tensor — the same nine the
// content-addressed result cache keys on (docs/DURABILITY.md). Functional
// options compile into a Spec (Engine.ResolveSpec exposes the resolved
// form), WithSpec turns a Spec back into an option, and the HTTP front end
// (internal/service, docs/SERVICE.md) uses it verbatim as the wire schema —
// a Spec is what lets a job description cross a process boundary.
//
// A Spec deliberately excludes everything runtime-bound or non-serializable:
// the pool/thread binding (always the executing Engine's), Progress
// callbacks, and convergence-trace capture stay per-call options layered on
// top (the Engine keeps them in a local-only overlay). Two runs of the same
// tensor under the same Spec are bit-identical on any machine, at any pool
// width, through any transport.
//
// The zero Spec is not runnable (a zero Rank is invalid); start from
// DefaultSpec or resolve options with Engine.ResolveSpec.
type Spec struct {
	// Method names the registered algorithm (canonical names from Methods;
	// aliases accepted by WithMethod are canonicalized by ResolveSpec).
	Method MethodID `json:"method"`
	// Rank is the target rank R.
	Rank int `json:"rank"`
	// MaxIters bounds the ALS iterations.
	MaxIters int `json:"max_iters"`
	// Tol is the relative convergence tolerance (0 runs MaxIters
	// unconditionally).
	Tol float64 `json:"tol"`
	// Seed drives factor initialization and randomized sketches.
	Seed uint64 `json:"seed"`
	// Oversample is the randomized-SVD oversampling parameter (DPar2 only).
	Oversample int `json:"oversample"`
	// PowerIters is the randomized-SVD power-iteration count (DPar2 only).
	PowerIters int `json:"power_iters"`
	// ShardRows is the stage-1 sharding threshold (DPar2 only): 0 means
	// DefaultShardRows, negative disables sharding (see WithShardRows).
	ShardRows int `json:"shard_rows"`
	// Ridge adds λ·I to the Gram matrices of the normal-equation solves.
	Ridge float64 `json:"ridge"`
	// NonnegativeS constrains the S_k weights to be nonnegative.
	NonnegativeS bool `json:"nonneg_s"`
}

// DefaultSpec is the Spec an optionless Engine.Decompose on a default-built
// Engine resolves to: MethodDPar2 under DefaultConfig's deterministic knobs.
func DefaultSpec() Spec {
	return specFromConfig(MethodDPar2, DefaultConfig())
}

// specFromConfig projects a Config's deterministic knobs into a Spec. The
// runtime fields (Pool, Threads, Progress, TrackConvergence) do not travel —
// they are exactly the non-serializable overlay a Spec excludes.
func specFromConfig(m MethodID, cfg Config) Spec {
	return Spec{
		Method:       m,
		Rank:         cfg.Rank,
		MaxIters:     cfg.MaxIters,
		Tol:          cfg.Tol,
		Seed:         cfg.Seed,
		Oversample:   cfg.Oversample,
		PowerIters:   cfg.PowerIters,
		ShardRows:    cfg.ShardRows,
		Ridge:        cfg.Ridge,
		NonnegativeS: cfg.NonnegativeS,
	}
}

// Validate checks every knob the way the corresponding per-call option
// would, plus that Method names a registered algorithm. A Spec accepted by
// Validate is accepted by WithSpec.
func (s Spec) Validate() error {
	if _, err := parafac2.MustLookup(string(s.Method)); err != nil {
		return err
	}
	if s.Rank <= 0 {
		return fmt.Errorf("repro: Spec.Rank %d: rank must be positive", s.Rank)
	}
	if s.MaxIters <= 0 {
		return fmt.Errorf("repro: Spec.MaxIters %d: must be positive", s.MaxIters)
	}
	if s.Tol < 0 {
		return fmt.Errorf("repro: Spec.Tol %g: must be >= 0", s.Tol)
	}
	if s.Oversample < 0 {
		return fmt.Errorf("repro: Spec.Oversample %d: must be >= 0", s.Oversample)
	}
	if s.PowerIters < 0 {
		return fmt.Errorf("repro: Spec.PowerIters %d: must be >= 0", s.PowerIters)
	}
	if s.Ridge < 0 {
		return fmt.Errorf("repro: Spec.Ridge %g: must be >= 0", s.Ridge)
	}
	return nil
}

// shardRowsThreshold resolves the ShardRows convention (0 = default,
// negative = off) exactly like Config.ShardRowsThreshold — the value the
// result-cache key uses, so a default and an explicit DefaultShardRows hit
// the same entry.
func (s Spec) shardRowsThreshold() int {
	return Config{ShardRows: s.ShardRows}.ShardRowsThreshold()
}

// config materializes the Config a method executes: the Spec's deterministic
// knobs plus the local-only overlay. Pool/Threads stay zero — the Engine
// pins them to its shared pool afterwards.
func (s Spec) config(run runOverlay) Config {
	return Config{
		Rank:             s.Rank,
		MaxIters:         s.MaxIters,
		Tol:              s.Tol,
		Seed:             s.Seed,
		Oversample:       s.Oversample,
		PowerIters:       s.PowerIters,
		ShardRows:        s.ShardRows,
		Ridge:            s.Ridge,
		NonnegativeS:     s.NonnegativeS,
		TrackConvergence: run.trackConvergence,
		Progress:         run.progress,
	}
}

// WithSpec replaces every deterministic knob at once with a canonical Spec —
// the option the HTTP front end executes resolved requests through. The
// local-only overlay (Progress, convergence trace) is untouched; combine
// freely with those options. The Spec is validated eagerly: an invalid field
// surfaces as an error from the call WithSpec was passed to, like any
// per-call option.
func WithSpec(s Spec) Option {
	return func(j *jobSpec) error {
		if err := s.Validate(); err != nil {
			return err
		}
		j.spec = s
		return nil
	}
}

// ResolveSpec compiles per-call options over the Engine's base configuration
// into the canonical Spec the same options would execute under — the form
// that serializes, keys the result cache, and travels over the wire. The
// method name is canonicalized (aliases like "rdals" resolve to "rd-als"),
// so equal workloads resolve to equal Specs. ResolveSpec is pure: it neither
// runs anything nor touches the pool, and works on a closed Engine.
func (e *Engine) ResolveSpec(opts ...Option) (Spec, error) {
	js := e.newJobSpec()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&js); err != nil {
			return Spec{}, err
		}
	}
	m, err := parafac2.MustLookup(string(js.spec.Method))
	if err != nil {
		return Spec{}, err
	}
	js.spec.Method = MethodID(m.Name())
	if err := js.spec.Validate(); err != nil {
		return Spec{}, err
	}
	return js.spec, nil
}
