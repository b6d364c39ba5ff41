package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// daemonBin is the dpar2d binary TestMain builds for serve-mixed.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "dpar2d")
	if out, err := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/dpar2d").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build dpar2d: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runTiny runs one workload at tiny sizes and returns its parsed result line.
func runTiny(t *testing.T, workload string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "0.5", "-trace", trace,
		"-tiny", "-dpar2d", daemonBin, "-workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s -trace %s exited %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line does not parse as the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s -trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace,
			res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and traced
// and requires exactly the named metrics, each with its unit. A missing or
// renamed metric is a hard failure.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				res := runTiny(t, w.name, mode.trace)
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if mode.trace == "0" {
					for _, name := range []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "ok_ratio", "fitness", "peak_rss_mb"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// TestServeMixedSplitMatchesMix checks the traced serve-mixed run: the cache
// hit ratio equals the configured mix and the admission layer saw traffic.
func TestServeMixedSplitMatchesMix(t *testing.T) {
	res := runTiny(t, "serve-mixed", "1")
	w := serveMixed(true)
	want := float64(w.mix[classHit]) / float64(w.mix[classHit]+w.mix[classMiss])
	if got := res.Metrics["state.cache_hit_ratio"].Value; got != want {
		t.Errorf("state.cache_hit_ratio = %v, want the configured %v", got, want)
	}
	for _, name := range []string{"service.hit_ms", "service.miss_ms", "service.absorb_ms", "admission.run_ms",
		"state.checkpoint_write_ms", "parafac2.absorb_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metric lists and
// workload table in this package.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, benchmark %q / %q", i,
				def.Workloads[i].Name, def.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}

func TestResultRejectsMissingMetric(t *testing.T) {
	r := newReport()
	r.attempted = 1
	r.values["setup_s"] = 1
	if _, err := r.result(endToEnd); err == nil {
		t.Fatal("a report missing metrics rendered a result")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (10 samples beyond)", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}
