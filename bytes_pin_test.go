package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataio"
	"repro/internal/mat"
	"repro/internal/parafac2"
)

// pinnedBytes pins the sha256 of every persisted format, each encoded from
// fixed inputs: a DPT2 tensor, a dense and a factored DPF2 result, one
// result-cache entry (file bytes, trailer included) and its key, and a DPC2
// checkpoint. The first five are built from hand-written values and hold on
// every GOARCH; the checkpoint carries computed factors, so like
// TestGoldenDigests it is pinned for amd64 only. A failure here means an
// on-disk format changed: files, caches and checkpoints written by an
// earlier build would no longer read back the same.
var pinnedBytes = map[string]string{
	"tensor":          "dd01f666858678c5da1359a85f03dc2fbd150163bb1fc6e688d61cb04114a0f4",
	"result-dense":    "b2ca00033be9699ba0e92cfe9ecd28925e8f7a44b625f741d6cdd0e9566a962b",
	"result-factored": "74c2318d6201338186213b1b91f99623002b1912a81bb1513609343f521ddb92",
	"cache-entry":     "e93ab9a1627efb5eed43620ccdbd9daa3810ff29411938106092493fa1c3d8cf",
	"cache-key":       "1a9a85c85ab854482980ad5747f7f07afcd6e63429a3e08b9b643ec06bea2594",
	"checkpoint":      "f2da9e3413318ff1f4b7494784fafac2ff9de1282c89b9aea3fda29beb0b77c9",
}

// pinMatrix fills a rows×cols matrix from a fixed formula, salted so no two
// pinned matrices share values. Three entries are special values whose bit
// patterns must survive encoding: negative zero, +Inf and a NaN payload.
func pinMatrix(rows, cols int, salt float64) *mat.Dense {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = (float64(i)+salt)/7 - 3
	}
	data[0] = math.Copysign(0, -1)
	if len(data) > 2 {
		data[1] = math.Inf(1)
		data[2] = math.Float64frombits(0x7ff8_0000_0000_0123)
	}
	return mat.NewFromData(rows, cols, data)
}

func pinTensor(t *testing.T) *Irregular {
	t.Helper()
	x, err := NewIrregular([]*mat.Dense{pinMatrix(4, 3, 1), pinMatrix(6, 3, 2), pinMatrix(5, 3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// pinResult builds a rank-2 result over slices of 4, 6 and 5 rows, with Q
// dense or in DPar2's factored form Q_k = A_k Z_k P_kᵀ.
func pinResult(factored bool) *Result {
	res := &Result{
		H:                 pinMatrix(2, 2, 10),
		V:                 pinMatrix(3, 2, 11),
		S:                 [][]float64{{1.5, -0.25}, {2, 0.125}, {-3, 4}},
		Fitness:           0.875,
		FitnessKind:       FitnessTrue,
		Iters:             7,
		PreprocessedBytes: 12345,
	}
	rows := []int{4, 6, 5}
	var a, z, p []*mat.Dense
	for k, ik := range rows {
		a = append(a, pinMatrix(ik, 2, 20+float64(k)))
		z = append(z, pinMatrix(2, 2, 30+float64(k)))
		p = append(p, pinMatrix(2, 2, 40+float64(k)))
	}
	if factored {
		res.SetFactoredQ(a, z, p)
	} else {
		res.SetQ(a)
	}
	return res
}

func pinDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkPin(t *testing.T, name string, b []byte) {
	t.Helper()
	if got, want := pinDigest(b), pinnedBytes[name]; got != want {
		t.Errorf("%s bytes changed: sha256 %s, pinned %q\n\t%q: %q,", name, got, want, name, pinDigest(b))
	}
}

// TestPersistedBytesPinned pins the encoders byte for byte, and checks that
// decoding each pinned payload and encoding it again reproduces it.
func TestPersistedBytesPinned(t *testing.T) {
	t.Run("tensor", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dataio.WriteTensor(&buf, pinTensor(t)); err != nil {
			t.Fatal(err)
		}
		checkPin(t, "tensor", buf.Bytes())
		back, err := dataio.ReadTensor(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := dataio.WriteTensor(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatal("tensor does not re-encode to the same bytes")
		}
	})
	for _, factored := range []bool{false, true} {
		name := "result-dense"
		if factored {
			name = "result-factored"
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := dataio.WriteResult(&buf, pinResult(factored)); err != nil {
				t.Fatal(err)
			}
			checkPin(t, name, buf.Bytes())
			back, err := dataio.ReadResult(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if back.Factored() != factored {
				t.Fatalf("Q form not preserved: factored=%v", back.Factored())
			}
			var again bytes.Buffer
			if err := dataio.WriteResult(&again, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatal("result does not re-encode to the same bytes")
			}
		})
	}
	t.Run("cache", func(t *testing.T) {
		dir := t.TempDir()
		eng := NewEngine(WithEngineThreads(1), WithStateDir(dir), WithResultCache(1<<20))
		defer eng.Close()
		_, m, js, _, err := eng.prepare(context.Background(),
			[]Option{WithRank(2), WithSeed(9), WithMaxIters(5), WithTolerance(0.5),
				WithRidge(1e-3), WithShardRows(-1), WithNonnegativeS()},
			false, "pin")
		if err != nil {
			t.Fatal(err)
		}
		key, ok := eng.resultCacheKey(m, pinTensor(t), js)
		if !ok {
			t.Fatal("pinned request is uncacheable")
		}
		if key != pinnedBytes["cache-key"] {
			t.Errorf("cache key changed: %s, pinned %q\n\t%q: %q,", key, pinnedBytes["cache-key"], "cache-key", key)
		}
		eng.cacheStore(key, mustEncode(t, pinResult(true)))
		entry, err := os.ReadFile(filepath.Join(dir, "cache", key+".cache"))
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, "cache-entry", entry)
		rec, ok := eng.cacheLookup(key)
		if !ok {
			t.Fatal("pinned entry does not read back")
		}
		hit, err := rec.decode()
		if err != nil {
			t.Fatal(err)
		}
		resultsEqualBits(t, hit, pinResult(true))
		if hit.PreprocessedBytes != 12345 {
			t.Fatalf("PreprocessedBytes %d, want 12345", hit.PreprocessedBytes)
		}
		eng.cacheStore(key, mustEncode(t, hit))
		again, err := os.ReadFile(filepath.Join(dir, "cache", key+".cache"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, entry) {
			t.Fatal("cache entry does not re-encode to the same bytes")
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		if runtime.GOARCH != "amd64" {
			t.Skipf("checkpoint bytes carry computed factors, pinned for amd64 only (%s may fuse x*y+z)", runtime.GOARCH)
		}
		eng := NewEngine(WithEngineThreads(2))
		defer eng.Close()
		x := LowRankTensor(NewRNG(5), []int{20, 26, 23, 30}, 9, 2, 0.05)
		first, err := NewIrregular(x.Slices[:3])
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewStream(context.Background(), first,
			WithRank(2), WithSeed(4), WithMaxIters(6), WithRidge(1e-9))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AbsorbCtx(context.Background(), x.Slices[3:]); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		checkPin(t, "checkpoint", buf.Bytes())
		back, err := parafac2.RestoreStream(bytes.NewReader(buf.Bytes()), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.Checkpoint(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatal("checkpoint does not re-encode to the same bytes")
		}
	})
}
