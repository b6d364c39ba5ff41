package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/parafac2"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/tensor"
)

// Request classes of the serve-mixed mix.
const (
	classHit    = iota // cached /v1/decompose: key hash, disk read, DPF2 decode/encode, base64 JSON
	classMiss          // fresh-seed /v1/decompose: compute plus a cache store
	classAbsorb        // durable stream absorb: absorb plus an fsynced checkpoint
	classRotate        // open a fresh stream, bounding every stream's absorbed history
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "absorb", "rotate"}

// serveWorkload sizes serve-mixed. Each client runs cycles of cycleLen
// requests in a seeded order with a fixed count per class; a client stops
// only at a cycle boundary, so the served mix always equals the configured
// one. A client rotates to a fresh stream once per cycle, so no stream holds
// more than two cycles of absorbs and absorb cost does not drift with run
// length.
//
// The mix is an assumption, not measured traffic: the repository holds no
// record of real request logs. Hits are the large majority (14 of 20) so a
// served op mostly bypasses the method; the 2 misses and 3 absorbs per cycle
// are the fewest that still give each class over a hundred samples in a
// 30-second run, enough for steady per-class medians.
//
// Rotated streams cannot be deleted over the API, so the daemon's memory
// grows with the number of cycles served. peak_rss_mb is therefore read from
// the child's VmHWM once rssCycles cycles have completed, a fixed amount of
// work, so a faster server does not read as a memory regression.
type serveWorkload struct {
	hitTensors, hitSeeds int // hit keys = tensors × seeds
	k, lo, hi            int
	streamK, batchK      int
	rank, iters          int
	mix                  [numClasses]int
	clients              int
	rssCycles            int // completed cycles (all clients) at which peak_rss_mb is read
	floor, streamFloor   float64
}

func serveMixed(tiny bool) serveWorkload {
	w := serveWorkload{hitTensors: 2, hitSeeds: 2, k: 40, lo: 100, hi: 1200,
		streamK: 8, batchK: 4, rank: 10, iters: 32,
		mix:     [numClasses]int{classHit: 14, classMiss: 2, classAbsorb: 3, classRotate: 1},
		clients: 2, rssCycles: 16, floor: 0.5, streamFloor: 0.5}
	if tiny {
		w.k, w.lo, w.hi, w.streamK, w.batchK, w.iters, w.rssCycles = 6, 40, 100, 4, 2, 4, 2
	}
	return w
}

func (w serveWorkload) cycleLen() int {
	n := 0
	for _, c := range w.mix {
		n += c
	}
	return n
}

func (w serveWorkload) spec(seed uint64) repro.Spec {
	s := repro.DefaultSpec()
	s.Rank, s.MaxIters, s.Tol, s.Seed = w.rank, w.iters, 0, seed
	return s
}

// stockTensor is a stock tensor of k slices with long-tailed row counts.
func (w serveWorkload) stockTensor(g *rng.RNG, k int) *tensor.Irregular {
	return stockTensor(g, rowCounts(g, k, w.lo, w.hi, 5), datagen.StockFeatureCount)
}

// ----- the daemon --------------------------------------------------------------

// daemon is one dpar2d child process serving on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the child's stdout hits EOF
}

func startDaemon(ctx context.Context, bin, stateDir string, log io.Writer) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve-mixed needs -dpar2d (run through perfbench/run.sh)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-threads", fmt.Sprint(poolWidth),
		"-state", stateDir, "-cache-mb", "2048")
	cmd.Stderr = log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dpar2d: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dpar2d: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.drained:
		_, _ = d.stop()
		return nil, errors.New("dpar2d exited before listening")
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	_, _ = d.stop()
	return nil, errors.New("dpar2d did not start listening")
}

// vmHWM is the daemon's peak resident set so far (VmHWM), in MiB.
func (d *daemon) vmHWM() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kib); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains the daemon with SIGTERM (SIGKILL after 30 s), waits for it to
// exit, and returns its peak resident set (VmHWM) in MiB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rss, err
}

// ----- HTTP --------------------------------------------------------------------

type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &httpClient{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and returns the status and whole body.
func (c *httpClient) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// postJSON marshals in, expects want, and unmarshals the reply into out (nil:
// skip). It returns the raw reply body.
func (c *httpClient) postJSON(ctx context.Context, path string, in any, want int, out any) ([]byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	status, raw, err := c.do(ctx, http.MethodPost, path, "application/json", body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return raw, fmt.Errorf("POST %s: status %d: %.200s", path, status, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("POST %s: decode reply: %w", path, err)
		}
	}
	return raw, nil
}

func (c *httpClient) stats(ctx context.Context) (service.StatsResponse, error) {
	var st service.StatsResponse
	status, raw, err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

func (c *httpClient) upload(ctx context.Context, t *tensor.Irregular) (string, error) {
	var buf bytes.Buffer
	if err := dataio.WriteTensor(&buf, t); err != nil {
		return "", err
	}
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/tensors", "application/octet-stream", buf.Bytes())
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("upload: status %d: %.200s", status, raw)
	}
	var info service.TensorInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return "", err
	}
	return info.TensorID, nil
}

// benchTenant is the admission tenant every decompose request uses, so the
// /v1/stats deltas cover exactly the benchmark's traffic.
const benchTenant = "bench"

func decomposeReq(tensorID string, spec repro.Spec) service.DecomposeRequest {
	return service.DecomposeRequest{TensorID: tensorID, Spec: service.SpecRequest{Full: &spec}, Tenant: benchTenant}
}

// verifyDecompose fully checks a decompose reply: the echoed Spec, the meta,
// and DPF2 bytes that decode into finite factors.
func verifyDecompose(raw []byte, spec repro.Spec, w serveWorkload) (service.DecomposeResponse, error) {
	var resp service.DecomposeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, fmt.Errorf("decode reply: %w", err)
	}
	if resp.Spec != spec {
		return resp, fmt.Errorf("reply spec %+v, want %+v", resp.Spec, spec)
	}
	m := resp.Meta
	if !finite(m.Fitness) || m.Fitness < w.floor || m.FitnessKind != parafac2.FitnessTrue.String() || m.Iters != w.iters {
		return resp, fmt.Errorf("reply meta %+v fails the floor %v / %d iterations", m, w.floor, w.iters)
	}
	res, err := dataio.ReadResult(bytes.NewReader(resp.ResultDPF2))
	if err != nil {
		return resp, fmt.Errorf("DPF2: %w", err)
	}
	if !finite(res.H.Data...) || !finite(res.V.Data...) {
		return resp, errors.New("DPF2 factors are not finite")
	}
	for _, s := range res.S {
		if !finite(s...) {
			return resp, errors.New("DPF2 factors are not finite")
		}
	}
	return resp, nil
}

func checkStream(info service.StreamInfo, wantK int, w serveWorkload) error {
	if info.K != wantK || !info.Durable {
		return fmt.Errorf("stream %s: K %d durable %v, want K %d durable", info.StreamID, info.K, info.Durable, wantK)
	}
	if !finite(info.Meta.Fitness) || info.Meta.Fitness < w.streamFloor {
		return fmt.Errorf("stream %s: fitness %v below floor %v", info.StreamID, info.Meta.Fitness, w.streamFloor)
	}
	return nil
}

// ----- set-up ------------------------------------------------------------------

// hitKey is one cached (tensor, Spec) pair, verified in set-up: bodyHash is
// the sha256 of the full /v1/decompose reply every later hit must match
// byte for byte.
type hitKey struct {
	tensorID string
	tensor   *tensor.Irregular
	spec     repro.Spec
	fitness  float64
	dpf2     []byte
	bodyHash [32]byte
}

type serveInputs struct {
	d        *daemon
	dir      string
	keys     []hitKey
	initial  *tensor.Irregular
	batch    *tensor.Irregular
	initID   string
	batchID  string
	streamSp repro.Spec
	orders   [][]int // per-cycle request orders
}

func (w serveWorkload) setup(ctx context.Context, rc runConfig, rep int) (*serveInputs, error) {
	g := rng.New(rc.seed)
	in := &serveInputs{streamSp: w.spec(rc.seed ^ 0x5eed)}
	tensors := make([]*tensor.Irregular, w.hitTensors)
	for i := range tensors {
		tensors[i] = w.stockTensor(g.Split(), w.k)
	}
	in.initial = w.stockTensor(g.Split(), w.streamK)
	in.batch = w.stockTensor(g.Split(), w.batchK)
	cycle := make([]int, 0, w.cycleLen())
	for c, n := range w.mix {
		for i := 0; i < n; i++ {
			cycle = append(cycle, c)
		}
	}
	for i := 0; i < 64; i++ {
		order := make([]int, len(cycle))
		for j, p := range g.Perm(len(cycle)) {
			order[j] = cycle[p]
		}
		in.orders = append(in.orders, order)
	}

	dir, err := filepath.Abs(filepath.Join(rc.workdir, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	in.dir = dir
	d, err := startDaemon(ctx, rc.dpar2d, filepath.Join(dir, "state"), rc.log)
	if err != nil {
		return nil, err
	}
	in.d = d
	c := newHTTPClient(d.base, 1)
	fail := func(err error) (*serveInputs, error) {
		in.release()
		return nil, err
	}
	ids := make([]string, len(tensors))
	for i, t := range tensors {
		if ids[i], err = c.upload(ctx, t); err != nil {
			return fail(err)
		}
	}
	if in.initID, err = c.upload(ctx, in.initial); err != nil {
		return fail(err)
	}
	if in.batchID, err = c.upload(ctx, in.batch); err != nil {
		return fail(err)
	}
	// Warm every hit key: the first request misses and computes, the second
	// hits; both are fully verified and must carry the same DPF2 bytes.
	for s := 0; s < w.hitSeeds; s++ {
		for i, t := range tensors {
			spec := w.spec(rc.seed + uint64(s))
			req := decomposeReq(ids[i], spec)
			var first, hit []byte
			if first, err = c.postJSON(ctx, "/v1/decompose", req, http.StatusOK, nil); err != nil {
				return fail(err)
			}
			if hit, err = c.postJSON(ctx, "/v1/decompose", req, http.StatusOK, nil); err != nil {
				return fail(err)
			}
			r1, err := verifyDecompose(first, spec, w)
			if err != nil {
				return fail(fmt.Errorf("warm-up miss: %w", err))
			}
			r2, err := verifyDecompose(hit, spec, w)
			if err != nil {
				return fail(fmt.Errorf("warm-up hit: %w", err))
			}
			if !bytes.Equal(r1.ResultDPF2, r2.ResultDPF2) {
				return fail(errors.New("cache hit returned different DPF2 bytes than the computing miss"))
			}
			in.keys = append(in.keys, hitKey{tensorID: ids[i], tensor: t, spec: spec,
				fitness: r2.Meta.Fitness, dpf2: r2.ResultDPF2, bodyHash: sha256.Sum256(hit)})
		}
	}
	// Every client's first stream.
	for id := 0; id < w.clients; id++ {
		var info service.StreamInfo
		if _, err := c.postJSON(ctx, "/v1/streams", service.StreamCreateRequest{
			StreamID: fmt.Sprintf("c%d-0", id), TensorID: in.initID, Spec: service.SpecRequest{Full: &in.streamSp}},
			http.StatusCreated, &info); err != nil {
			return fail(err)
		}
		if err := checkStream(info, w.streamK, w); err != nil {
			return fail(err)
		}
	}
	return in, nil
}

// release stops the daemon and removes its state directory.
func (in *serveInputs) release() float64 {
	var rss float64
	if in.d != nil {
		rss, _ = in.d.stop()
		in.d = nil
	}
	_ = os.RemoveAll(in.dir)
	return rss
}

// ----- the load ----------------------------------------------------------------

type served struct {
	class  int
	ms     float64 // wall latency
	scaled float64 // reference-speed latency (speed.go)
	traced bool
	ok     bool
	fit    float64 // true fitness of a decompose reply
}

// client is one closed-loop client's place in its request stream.
type client struct {
	id                      int
	hits, misses, rotations int
	stream                  string
	streamK                 int
	errs                    []string
}

func (w serveWorkload) newClient(id int) *client {
	return &client{id: id, stream: fmt.Sprintf("c%d-0", id), streamK: w.streamK}
}

func (cl *client) note(format string, args ...any) {
	if len(cl.errs) < 20 {
		cl.errs = append(cl.errs, fmt.Sprintf("client %d: ", cl.id)+fmt.Sprintf(format, args...))
	}
}

// cycle runs the client's cycle number cyc: one request after another, in
// the cycle's seeded order.
func (w serveWorkload) cycle(ctx context.Context, c *httpClient, in *serveInputs, cl *client, cyc int, traced bool) (out []served) {
	for _, class := range in.orders[(cyc+cl.id)%len(in.orders)] {
		if ctx.Err() != nil {
			return out
		}
		rec := served{class: class, traced: traced}
		t0 := time.Now()
		var err error
		switch class {
		case classHit:
			key := in.keys[(cl.hits+cl.id)%len(in.keys)]
			cl.hits++
			var raw []byte
			raw, err = c.postJSON(ctx, "/v1/decompose", decomposeReq(key.tensorID, key.spec), http.StatusOK, nil)
			rec.ms = durMS(time.Since(t0))
			if err == nil && sha256.Sum256(raw) != key.bodyHash {
				err = errors.New("hit reply differs from the verified reply for its key")
			}
			rec.fit = key.fitness
		case classMiss:
			key := in.keys[cl.misses%len(in.keys)]
			spec := key.spec
			spec.Seed = 1<<40 + uint64(cl.id)<<32 + uint64(cl.misses)
			cl.misses++
			var raw []byte
			raw, err = c.postJSON(ctx, "/v1/decompose", decomposeReq(key.tensorID, spec), http.StatusOK, nil)
			rec.ms = durMS(time.Since(t0))
			if err == nil {
				var resp service.DecomposeResponse
				resp, err = verifyDecompose(raw, spec, w)
				rec.fit = resp.Meta.Fitness
			}
		case classAbsorb:
			var info service.StreamInfo
			_, err = c.postJSON(ctx, "/v1/streams/"+cl.stream+"/absorb",
				service.AbsorbRequest{TensorID: in.batchID}, http.StatusOK, &info)
			rec.ms = durMS(time.Since(t0))
			if err == nil {
				cl.streamK += w.batchK
				err = checkStream(info, cl.streamK, w)
			}
		case classRotate:
			cl.rotations++
			cl.stream = fmt.Sprintf("c%d-%d", cl.id, cl.rotations)
			var info service.StreamInfo
			_, err = c.postJSON(ctx, "/v1/streams", service.StreamCreateRequest{
				StreamID: cl.stream, TensorID: in.initID, Spec: service.SpecRequest{Full: &in.streamSp}},
				http.StatusCreated, &info)
			rec.ms = durMS(time.Since(t0))
			cl.streamK = w.streamK
			if err == nil {
				err = checkStream(info, cl.streamK, w)
			}
		}
		rec.ok = err == nil
		if err != nil {
			cl.note("%s: %v", classNames[class], err)
		}
		out = append(out, rec)
	}
	return out
}

func runServeMixed(ctx context.Context, rc runConfig) (*report, error) {
	w := serveMixed(rc.tiny)
	rep := newReport()
	sm := newSpeedMeter()
	setupN := 0
	in, setupS, err := repeatSetup(setupReps, sm,
		func() (*serveInputs, error) { setupN++; return w.setup(ctx, rc, setupN) },
		func(in *serveInputs) { in.release() })
	if err != nil {
		return nil, err
	}
	released := false
	defer func() {
		if !released {
			in.release()
		}
	}()
	rep.values["setup_s"] = setupS
	rep.notef("set-up: dpar2d -threads %d, %d hit keys (K=%d, J=%d), %d clients, mix per %d-request cycle hit/miss/absorb/rotate = %v; median of %d set-ups %.3f s",
		poolWidth, len(in.keys), w.k, datagen.StockFeatureCount, w.clients, w.cycleLen(), w.mix, setupReps, setupS)

	c := newHTTPClient(in.d.base, w.clients)
	before, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}
	// The clients run their cycles in rounds: every client runs one cycle,
	// all wait for the last, and the round is scaled by the bursts on either
	// side of it (speed.go), taken while the daemon is idle. The load stops at
	// a round boundary, so the served mix always equals the configured one.
	// With trace, odd rounds are traced.
	clients := make([]*client, w.clients)
	for id := range clients {
		clients[id] = w.newClient(id)
	}
	var all []served
	var busyMS, burst, rssAtCycles float64
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	rounds := 0
	for ; rounds == 0 || time.Now().Before(deadline); rounds++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		traced := rc.trace && rounds%2 == 1
		out := make([][]served, w.clients)
		var roundMS, f float64
		roundMS, f, burst = sm.span(burst, func() {
			var wg sync.WaitGroup
			for id, cl := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out[id] = w.cycle(ctx, c, in, cl, rounds, traced)
				}()
			}
			wg.Wait()
		})
		busyMS += roundMS * f
		for _, recs := range out {
			for _, s := range recs {
				s.scaled = s.ms * f
				all = append(all, s)
			}
		}
		if rssAtCycles == 0 && (rounds+1)*w.clients >= w.rssCycles {
			if rssAtCycles, err = in.d.vmHWM(); err != nil {
				return nil, fmt.Errorf("read dpar2d VmHWM: %w", err)
			}
		}
	}
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}

	for _, cl := range clients {
		for _, e := range cl.errs {
			rep.notef("CHECK FAILED: %s", e)
		}
	}
	var lats, walls, fits []float64
	var count [numClasses]int
	for _, s := range all {
		rep.attempted++
		if !s.ok {
			rep.failed++
		}
		count[s.class]++
		lats = append(lats, s.scaled)
		walls = append(walls, s.ms)
		if s.ok && (s.class == classHit || s.class == classMiss) {
			fits = append(fits, s.fit)
		}
	}

	// The served mix must be the configured one: every hit request hit the
	// cache and every fresh-seed request missed it.
	dHits := after.Cache.Hits - before.Cache.Hits
	dMisses := after.Cache.Misses - before.Cache.Misses
	rep.check(int(dHits) == count[classHit] && int(dMisses) == count[classMiss],
		"cache served %d hits / %d misses for %d hit / %d miss requests", dHits, dMisses, count[classHit], count[classMiss])

	// One response per run must be byte-equal to the in-process result for
	// its Spec.
	eng := repro.NewEngine(repro.WithEngineThreads(poolWidth))
	defer eng.Close()
	key := in.keys[0]
	res, err := eng.Decompose(ctx, key.tensor, repro.WithSpec(key.spec))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataio.WriteResult(&buf, res); err != nil {
		return nil, err
	}
	rep.check(bytes.Equal(buf.Bytes(), key.dpf2), "served DPF2 bytes differ from the in-process result for the same Spec")

	peak := in.release()
	released = true
	rep.notef("dpar2d held %d streams at the end (%d cycles); VmHWM %.1f MiB after %d cycles, %.1f MiB at the end",
		w.clients+count[classRotate], rounds*w.clients, rssAtCycles, w.rssCycles, peak)
	if rssAtCycles == 0 {
		// Too slow to reach the fixed-work point: report the end-of-run peak.
		rep.notef("only %d of %d cycles completed: peak_rss_mb is the end-of-run VmHWM", rounds*w.clients, w.rssCycles)
		rssAtCycles = peak
	}

	if !rc.trace {
		rep.latencyMetrics(lats, walls, busyMS)
		sm.note(rep)
		rep.values["fitness"] = mean(fits)
		rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
		rep.values["peak_rss_mb"] = rssAtCycles
		rep.notef("served %v requests (hit/miss/absorb/rotate) in %.2f s", count, elapsed.Seconds())
		return rep, nil
	}

	// Per-class service latencies come from the traced rounds.
	var classMS [numClasses][]float64
	var tracedMS, untracedMS []float64
	var decomposeSum float64
	for _, s := range all {
		if s.class == classHit || s.class == classMiss {
			decomposeSum += s.ms
		}
		if s.traced {
			classMS[s.class] = append(classMS[s.class], s.ms)
			tracedMS = append(tracedMS, s.ms)
		} else {
			untracedMS = append(untracedMS, s.ms)
		}
	}
	rep.values["service.hit_ms"] = median(classMS[classHit])
	rep.values["service.miss_ms"] = median(classMS[classMiss])
	rep.values["service.absorb_ms"] = median(classMS[classAbsorb])
	rep.values["state.cache_hits"] = float64(dHits)
	rep.values["state.cache_misses"] = float64(dMisses)
	rep.values["state.cache_hit_ratio"] = float64(dHits) / float64(dHits+dMisses)

	tb, ta := tenantStats(before, benchTenant), tenantStats(after, benchTenant)
	started := ta.Started - tb.Started
	finished := ta.Completed + ta.Failed - tb.Completed - tb.Failed
	wait := ta.QueueWait - tb.QueueWait
	runT := ta.RunTime - tb.RunTime
	if after.Engine == nil || started == 0 || finished == 0 {
		return nil, fmt.Errorf("/v1/stats saw no %s traffic", benchTenant)
	}
	rep.values["admission.queue_wait_ms"] = durMS(wait) / float64(started)
	rep.values["admission.run_ms"] = durMS(runT) / float64(finished)
	rep.values["admission.max_depth"] = float64(after.Engine.MaxDepth)
	n := float64(count[classHit] + count[classMiss])
	rep.values["service.transport_ms"] = (decomposeSum - durMS(wait) - durMS(runT)) / n
	rep.notef("served %v requests (hit/miss/absorb/rotate) in %.2f s; cache hit ratio %.4f (configured %d/%d)",
		count, elapsed.Seconds(), rep.values["state.cache_hit_ratio"], w.mix[classHit], w.mix[classHit]+w.mix[classMiss])

	// In-process layer split of a miss: the same tensor under a fresh seed,
	// untraced and traced in turn.
	missSpec := key.spec
	missSpec.Seed = 1 << 41
	var tr traceSplit
	var untraced []float64
	var traced *parafac2.Result
	for i := 0; i < missProbes; i++ {
		t0 := time.Now()
		ures, err := eng.Decompose(ctx, key.tensor, repro.WithSpec(missSpec))
		untraced = append(untraced, durMS(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		if traced, err = tr.decompose(ctx, key.tensor, missSpec, eng.Pool()); err != nil {
			return nil, err
		}
		rep.check(sameBits(ures, traced), "traced composition is not bit-identical to Engine.Decompose")
	}
	tr.report(rep, untraced)
	// Over HTTP, tracing is the client-side per-class timing of odd rounds.
	rep.values["trace.overhead_ratio"] = median(tracedMS) / median(untracedMS)
	if err := layerProbes(ctx, rep, key.tensor, missSpec, eng.Pool(), traced); err != nil {
		return nil, err
	}
	return rep, streamProbes(ctx, rep, rc, in, eng)
}

// missProbes is how many untraced/traced in-process pairs split a miss.
const missProbes = 8

func tenantStats(st service.StatsResponse, tenant string) repro.TenantStats {
	if st.Engine != nil {
		for _, t := range st.Engine.Tenants {
			if t.Tenant == tenant {
				return t
			}
		}
	}
	return repro.TenantStats{Tenant: tenant}
}

// streamProbes times, in process, the absorb of the served batch into a
// stream over the served initial tensor (parafac2.absorb_ms) and the durable
// checkpoint of the absorbed stream (state.checkpoint_write_ms, through
// Engine.SaveStream: temp file, fsync, rename, directory fsync).
func streamProbes(ctx context.Context, rep *report, rc runConfig, in *serveInputs, eng *repro.Engine) error {
	st, err := eng.NewStream(ctx, in.initial, repro.WithSpec(in.streamSp))
	if err != nil {
		return err
	}
	var absorbed *repro.StreamingDPar2
	var absorbErr error
	rep.values["parafac2.absorb_ms"] = medianOf(probeReps, func() float64 {
		absorbed = st.Clone()
		t0 := time.Now()
		if err := absorbed.AbsorbCtx(ctx, in.batch.Slices); err != nil {
			absorbErr = err
		}
		return durMS(time.Since(t0))
	})
	if absorbErr != nil {
		return absorbErr
	}
	dir := in.dir + "-probe"
	defer os.RemoveAll(dir)
	durable := repro.NewEngine(repro.WithEngineThreads(1), repro.WithStateDir(dir))
	defer durable.Close()
	var saveErr error
	rep.values["state.checkpoint_write_ms"] = medianOf(probeReps, func() float64 {
		t0 := time.Now()
		if err := durable.SaveStream("probe.ckpt", absorbed); err != nil {
			saveErr = err
		}
		return durMS(time.Since(t0))
	})
	return saveErr
}
