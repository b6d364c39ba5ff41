package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dataio"
	"repro/internal/parafac2"
)

// TestResolveSpecDefaults: an optionless resolve yields the documented
// default spec, canonical method name included.
func TestResolveSpecDefaults(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	spec, err := eng.ResolveSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec != DefaultSpec() {
		t.Fatalf("resolved %+v, want DefaultSpec %+v", spec, DefaultSpec())
	}
	if spec.Method != MethodDPar2 || spec.Rank != 10 || spec.MaxIters != 32 {
		t.Fatalf("unexpected defaults: %+v", spec)
	}
}

// TestResolveSpecCanonicalizesAliases: the registry aliases the CLI accepts
// resolve to the canonical method name, so equal workloads have equal Specs.
func TestResolveSpecCanonicalizesAliases(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	a, err := eng.ResolveSpec(WithMethod("rdals"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.ResolveSpec(WithMethod(MethodRDALS))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Method != MethodRDALS {
		t.Fatalf("alias did not canonicalize: %+v vs %+v", a, b)
	}
}

// TestResolveSpecFoldsOptions: granular options land in the resolved Spec.
func TestResolveSpecFoldsOptions(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	spec, err := eng.ResolveSpec(
		WithRank(7), WithMaxIters(11), WithTolerance(1e-4), WithSeed(99),
		WithOversample(4), WithPowerIters(2), WithShardRows(1234),
		WithRidge(1e-8), WithNonnegativeS(),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Method: MethodDPar2, Rank: 7, MaxIters: 11, Tol: 1e-4, Seed: 99,
		Oversample: 4, PowerIters: 2, ShardRows: 1234, Ridge: 1e-8, NonnegativeS: true}
	if spec != want {
		t.Fatalf("resolved %+v, want %+v", spec, want)
	}
}

// TestResolveSpecErrors: invalid options and unknown methods surface as
// errors, like the calls they would have been passed to. That includes a
// power-iteration count past parafac2.MaxPowerIters and a non-finite
// tolerance or ridge, which every resolution — the HTTP path's too —
// rejects.
func TestResolveSpecErrors(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	for name, opt := range map[string]Option{
		"negative rank":     WithRank(-1),
		"unknown method":    WithMethod("no-such-method"),
		"power_iters 1<<40": WithPowerIters(1 << 40),
		"power_iters max+1": WithPowerIters(parafac2.MaxPowerIters + 1),
		"ridge +Inf":        WithRidge(math.Inf(1)),
		"ridge NaN":         WithRidge(math.NaN()),
		"tolerance +Inf":    WithTolerance(math.Inf(1)),
		"tolerance NaN":     WithTolerance(math.NaN()),
		"oversample 1<<62":  WithOversample(1 << 62),
		"spec power_iters":  WithSpec(Spec{Method: MethodDPar2, Rank: 3, MaxIters: 4, PowerIters: 1 << 40}),
	} {
		if _, err := eng.ResolveSpec(opt); err == nil {
			t.Errorf("%s: ResolveSpec accepted it", name)
		}
	}
	if _, err := eng.ResolveSpec(WithPowerIters(parafac2.MaxPowerIters)); err != nil {
		t.Fatalf("power_iters at the cap rejected: %v", err)
	}
}

// TestDecomposeRejectsUnboundedPowerIters: a Decompose carrying a
// power-iteration count past the cap fails before any work, instead of
// holding a worker in stage-1 sketches that no deadline can interrupt.
func TestDecomposeRejectsUnboundedPowerIters(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := eng.Decompose(ctx, engineTestTensor(3), WithRank(5), WithPowerIters(1<<40))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want a validation error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Decompose with power_iters 1<<40 still running 5s after a 200ms deadline")
	}
}

// TestSpecValidate covers the per-field checks WithSpec relies on.
func TestSpecValidate(t *testing.T) {
	good := DefaultSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Method = "bogus" },
		func(s *Spec) { s.Rank = 0 },
		func(s *Spec) { s.MaxIters = 0 },
		func(s *Spec) { s.Tol = -1 },
		func(s *Spec) { s.Oversample = -1 },
		func(s *Spec) { s.PowerIters = -1 },
		func(s *Spec) { s.PowerIters = parafac2.MaxPowerIters + 1 },
		func(s *Spec) { s.Ridge = -1 },
		func(s *Spec) { s.Ridge = math.Inf(1) },
		func(s *Spec) { s.Tol = math.NaN() },
	}
	for i, mutate := range cases {
		s := DefaultSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, s)
		}
	}
}

// TestWithSpecBitIdenticalToOptions: executing a resolved Spec (the path
// every transport request takes) is bit-identical to executing the granular
// option list it was resolved from.
func TestWithSpecBitIdenticalToOptions(t *testing.T) {
	eng := NewEngine(WithEngineThreads(2))
	defer eng.Close()
	g := NewRNG(3)
	ten := LowRankTensor(g, []int{60, 80, 70, 50}, 40, 6, 0.02)
	opts := []Option{WithRank(6), WithSeed(42), WithMaxIters(12), WithTolerance(0)}

	direct, err := eng.Decompose(context.Background(), ten, opts...)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := eng.ResolveSpec(opts...)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := eng.Decompose(context.Background(), ten, WithSpec(spec))
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := dataio.WriteResult(&a, direct); err != nil {
		t.Fatal(err)
	}
	if err := dataio.WriteResult(&b, viaSpec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WithSpec(resolved) result differs from the option-list result")
	}
	if direct.Fitness != viaSpec.Fitness || direct.Iters != viaSpec.Iters {
		t.Fatalf("metadata differs: fitness %v vs %v, iters %d vs %d",
			direct.Fitness, viaSpec.Fitness, direct.Iters, viaSpec.Iters)
	}
}

// TestWithSpecRejectsInvalid: WithSpec validates eagerly, before any work.
func TestWithSpecRejectsInvalid(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	g := NewRNG(1)
	ten := LowRankTensor(g, []int{20, 30}, 15, 4, 0.01)
	bad := DefaultSpec()
	bad.Rank = -3
	if _, err := eng.Decompose(context.Background(), ten, WithSpec(bad)); err == nil {
		t.Fatal("expected invalid-spec error")
	}
}

// TestSpecJSONRoundTrip: the wire form is stable and lossless — every knob
// survives marshal → unmarshal, including meaningful zeros.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{Method: MethodSPARTan, Rank: 5, MaxIters: 9, Tol: 0, Seed: 0,
		Oversample: 0, PowerIters: 0, ShardRows: -1, Ridge: 0.5, NonnegativeS: true}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round trip changed the spec: %+v -> %s -> %+v", spec, raw, back)
	}
	// The wire field names are part of the documented schema
	// (docs/SERVICE.md); renaming one is a breaking change.
	for _, field := range []string{`"method"`, `"rank"`, `"max_iters"`, `"tol"`,
		`"seed"`, `"oversample"`, `"power_iters"`, `"shard_rows"`, `"ridge"`, `"nonneg_s"`} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Errorf("wire form missing field %s: %s", field, raw)
		}
	}
}
