// Command perfbench is the repository's end-to-end benchmark. One invocation
// runs one named workload for a fixed number of seconds, checks every output
// for correctness, and prints its metrics as a JSON object on the last line
// of standard output:
//
//	perfbench -workload stock-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics a user sees (latency,
// throughput, set-up time, fitness, memory). With -trace 1 it runs the same
// load with traced and untraced operations interleaved and reports the
// per-layer split instead: the benchmark times its own calls into each
// layer's public functions (parafac2, rsvd, mat, lapack, scheduler, dataio,
// state, admission, service); nothing inside the program is instrumented.
//
// Workloads, metrics and their intended readings are documented in
// perfbench/README.md; the metric names and units are pinned by
// BENCHMARK.json at the repository root. Run it through perfbench/run.sh,
// which builds this program and the dpar2d daemon from source first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"fitness", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a -trace 1 run reports, on every workload. A
// layer a workload does not exercise reports 0 (e.g. state.cache_hits on the
// in-process workloads, whose result cache is off).
var perLayer = []metricDef{
	{"parafac2.compress_ms", "ms"},
	{"parafac2.compress_share", "ratio"},
	{"rsvd.stage1_busy_ms", "ms"},
	{"rsvd.stage1_wall_ms", "ms"},
	{"rsvd.stage1_parallel_eff", "ratio"},
	{"rsvd.stage2_ms", "ms"},
	{"mat.stage1_mul_gflops", "GFLOP/s"},
	{"parafac2.als_ms", "ms"},
	{"parafac2.als_iter_ms", "ms"},
	{"parafac2.als_iters", "count"},
	{"parafac2.als_share", "ratio"},
	{"lapack.factor_batch_ms", "ms"},
	{"parafac2.fitness_ms", "ms"},
	{"parafac2.als_setup_allocs", "count"},
	{"parafac2.als_allocs_per_iter", "count"},
	{"dataio.result_encode_ms", "ms"},
	{"dataio.result_decode_ms", "ms"},
	{"dataio.result_bytes", "bytes"},
	{"state.cache_hits", "count"},
	{"state.cache_misses", "count"},
	{"state.cache_hit_ratio", "ratio"},
	{"state.checkpoint_write_ms", "ms"},
	{"parafac2.absorb_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.miss_ms", "ms"},
	{"service.absorb_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"admission.queue_wait_ms", "ms"},
	{"admission.run_ms", "ms"},
	{"admission.max_depth", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.accounted_share", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool   // shrink every input (the benchmark's own tests)
	dpar2d  string // daemon binary (serve-mixed)
	workdir string // scratch root inside the checkout
	log     io.Writer
}

// report is one workload run's outcome. Every op and every check counts in
// attempted; every failed op or check counts in failed and is never dropped.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("CHECK FAILED: "+format, args...)
	}
}

type workload struct {
	name, why string
	run       func(ctx context.Context, rc runConfig) (*report, error)
}

var workloads = []workload{
	{"stock-cold", "long-tailed stock slices (K=60, I_k 200-3000): stage-1 compression (rsvd/mat/QR) dominates the op", runStockCold},
	{"urban-r16", "many short spectrogram slices at rank 16: the ALS loop (FactorBatch, Lemmas 1-3) dominates, stage 1 is small", runUrbanR16},
	{"serve-mixed", "dpar2d over loopback, 2 clients: mostly cache hits, plus durable stream absorbs and fresh-seed misses", runServeMixed},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "measurement window in seconds")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer split")
		tiny    = fs.Bool("tiny", false, "shrink every input (for the benchmark's own tests)")
		dpar2d  = fs.String("dpar2d", "", "dpar2d daemon binary (required by serve-mixed)")
		workdir = fs.String("workdir", ".bench_build", "scratch directory for daemon state and probe files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny,
		dpar2d: *dpar2d, workdir: *workdir, log: stderr}

	// Every run must end well inside the 180 s a caller allows it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := w.run(ctx, rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	out, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(w, rc)})
	fmt.Fprintln(stdout, string(prov))
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final JSON line with exactly the metrics in defs. A
// metric a workload forgot to set, or a non-finite value, is an error: a
// missing metric must fail the run, never silently disappear.
func (r *report) result(defs []metricDef) ([]byte, error) {
	if r.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}

// provenance records where and how a run was made.
func provenance(w *workload, rc runConfig) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload": w.name,
		"why":      w.why,
		"seed":     rc.seed,
		"seconds":  rc.seconds,
		"trace":    rc.trace,
		"host":     host,
		"cpu":      cpuModel(),
		"nproc":    runtime.NumCPU(),
		"go":       runtime.Version(),
		"goos":     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ----- small statistics helpers ---------------------------------------------

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile
// (nearest rank).
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailBeyond is how many samples must lie beyond the reported tail value.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// beyond it: the (n-tailBeyond)-th smallest sample, which is percentile
// 100·(n-tailBeyond)/n. With fewer than tailBeyond+1 samples it falls back to
// the maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

// latencyMetrics fills the latency and throughput metrics from per-op
// reference-speed latencies (ms) and the reference-speed time the load ran
// for (ms); walls are the same ops' unscaled latencies, for the notes.
func (r *report) latencyMetrics(lats, walls []float64, busyMS float64) {
	r.values["op_p50_ms"] = median(lats)
	v, pct := tail(lats)
	r.values["op_tail_ms"] = v
	r.values["ops_per_s"] = float64(len(lats)) / (busyMS / 1000)
	r.notef("op_tail_ms is p%.1f of %d ops (%d beyond it); op_p50_ms %.3f ms; %.3f ops/s (reference speed); unscaled wall op p50 %.3f ms",
		pct, len(lats), min(tailBeyond, max(len(lats)-1, 0)), median(lats), r.values["ops_per_s"], median(walls))
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
