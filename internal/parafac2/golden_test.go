package parafac2

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// goldenEpoch is the NumericsEpoch the pinned digests below were computed
// under.
const goldenEpoch = 2

// goldenDigests pins, per run of goldenRuns, a sha256 over the bits of the
// result (see resultDigest). The pins hold for amd64 only. SPARTan's
// slice-blocked MTTKRP reproduces ALS's bits, so their pins coincide.
var goldenDigests = map[string]string{
	"dpar2":                     "65be0a37db85c7fbeeadd09d6ef4df1cdb6bb2114042dbd8e15c22bee0018e90",
	"als":                       "cda0607b6335837aaa3a7fefe7bdf0ffbeac217402faa2e93b172140e0a79f7f",
	"rdals":                     "f633ea60e210eec81de3725392ac70c801c1895223b7915b9a0746b41423c2db",
	"spartan":                   "cda0607b6335837aaa3a7fefe7bdf0ffbeac217402faa2e93b172140e0a79f7f",
	"dpar2-sharded":             "fa9b7be52fc19cee28b304b30a7c8d34ddca77f7a04913985dcac402e61e5fa8",
	"stream-absorb":             "5e5fd8da8413979fab11a423ca8352bdd31ec660d643ecb8d47b24cbd47a84b9",
	"checkpoint-restore-absorb": "67ce410fdec81decd66aaa7f15df48cb992e3c26b9a8ee008c1cf26a19b9f70b",
}

const goldenBump = "computed bits changed: bump parafac2.NumericsEpoch and re-pin"

// goldenTensor is the fixed tiny input of every golden run: nine slices of
// 20-40 rows plus, for the sharded run, one 150-row slice.
func goldenTensor(tall bool) *tensor.Irregular {
	g := rng.New(2024)
	rows := irregRows(g, 9, 20, 40)
	if tall {
		rows[4] = 150
	}
	return synthPARAFAC2(g, rows, 14, 3, 0.05)
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 40
	cfg.Tol = 1e-12
	cfg.Threads = 2
	cfg.Seed = 17
	return cfg
}

// goldenRuns are the fixed runs whose bits the golden digests pin: DPar2
// and each baseline on one tensor, DPar2 with a sharded slice, a stream
// create + absorb, and a checkpoint → restore → absorb.
var goldenRuns = []struct {
	name string
	run  func(ctx context.Context) (*Result, error)
}{
	{"dpar2", func(ctx context.Context) (*Result, error) {
		return DPar2Ctx(ctx, goldenTensor(false), goldenConfig())
	}},
	{"als", func(ctx context.Context) (*Result, error) {
		return ALSCtx(ctx, goldenTensor(false), goldenConfig())
	}},
	{"rdals", func(ctx context.Context) (*Result, error) {
		return RDALSCtx(ctx, goldenTensor(false), goldenConfig())
	}},
	{"spartan", func(ctx context.Context) (*Result, error) {
		return SPARTanCtx(ctx, goldenTensor(false), goldenConfig())
	}},
	{"dpar2-sharded", func(ctx context.Context) (*Result, error) {
		cfg := goldenConfig()
		cfg.ShardRows = 64
		return DPar2Ctx(ctx, goldenTensor(true), cfg)
	}},
	{"stream-absorb", func(ctx context.Context) (*Result, error) {
		x := goldenTensor(false)
		s, err := NewStreamingDPar2Ctx(ctx, tensor.MustIrregular(x.Slices[:5]), goldenConfig())
		if err != nil {
			return nil, err
		}
		if err := s.AbsorbCtx(ctx, x.Slices[5:]); err != nil {
			return nil, err
		}
		return s.Result(), nil
	}},
	{"checkpoint-restore-absorb", func(ctx context.Context) (*Result, error) {
		x := goldenTensor(false)
		s, err := NewStreamingDPar2Ctx(ctx, tensor.MustIrregular(x.Slices[:4]), goldenConfig())
		if err != nil {
			return nil, err
		}
		if err := s.AbsorbCtx(ctx, x.Slices[4:6]); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			return nil, err
		}
		back, err := RestoreStream(&buf, goldenConfig())
		if err != nil {
			return nil, err
		}
		if err := back.AbsorbCtx(ctx, x.Slices[6:]); err != nil {
			return nil, err
		}
		return back.Result(), nil
	}},
}

// resultDigest is a sha256 over the float64 bits of H, V, every S_k, every
// Z_k and P_k (every dense Q_k for a result without a factored Q), then
// Iters and Fitness.
func resultDigest(r *Result) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	floats := func(vs []float64) {
		for _, v := range vs {
			word(math.Float64bits(v))
		}
	}
	floats(r.H.Data)
	floats(r.V.Data)
	for _, s := range r.S {
		floats(s)
	}
	if _, z, p, ok := r.FactoredQ(); ok {
		for k := range z {
			floats(z[k].Data)
			floats(p[k].Data)
		}
	} else {
		for k := 0; k < r.K(); k++ {
			floats(r.Qk(k).Data)
		}
	}
	word(uint64(r.Iters))
	word(math.Float64bits(r.Fitness))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins the computed bits of a few fixed tiny runs to the
// numerics epoch they belong to. A change that moves any bit fails here
// until NumericsEpoch is bumped (so persisted caches miss instead of
// serving the old bits) and the digests are re-pinned from the failure
// output. The Go spec lets a compiler fuse x*y+z, and the arm64 backend
// does, so the pins are per GOARCH; only amd64 is pinned.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 only: %s may fuse x*y+z (arm64 does), which changes the bits", runtime.GOARCH)
	}
	if goldenEpoch != NumericsEpoch {
		t.Fatalf("digests pinned at epoch %d but NumericsEpoch is %d: %s", goldenEpoch, NumericsEpoch, goldenBump)
	}
	ctx := context.Background()
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			res, err := run.run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultDigest(res), goldenDigests[run.name]; got != want {
				t.Fatalf("digest %s, pinned %q at epoch %d: %s\n\t%q: %q,", got, want, goldenEpoch, goldenBump, run.name, got)
			}
		})
	}
}
