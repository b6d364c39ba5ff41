package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/dataio"
	"repro/internal/service"
)

// daemon wraps one real dpar2d subprocess: a built binary on a real socket,
// so kill semantics are the operating system's, not the test harness's.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	done  chan struct{} // closed once stdout hit EOF and cmd.Wait returned
	lines []string      // stdout after the banner; read only after done
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dpar2d")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build dpar2d: %v\n%s", err, out)
	}
	return bin
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	// The first stdout line announces the bound address before Serve starts;
	// read it synchronously, then keep every later line from a goroutine.
	// That goroutine calls cmd.Wait only after stdout reaches EOF: Wait
	// closes the pipe once the process exits, so waiting any earlier could
	// lose the last lines (the drain log).
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("daemon produced no banner: %v", err)
	}
	const banner = "dpar2d: listening on "
	if !strings.HasPrefix(line, banner) {
		t.Fatalf("unexpected banner %q", line)
	}
	d := &daemon{
		cmd:  cmd,
		addr: strings.TrimSpace(strings.TrimPrefix(line, banner)),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(br)
		for sc.Scan() {
			d.lines = append(d.lines, sc.Text())
		}
		_ = cmd.Wait() // the exit status stays readable via cmd.ProcessState
	}()
	return d
}

// stop delivers sig and waits for the process to exit, returning the
// remaining stdout lines.
func (d *daemon) stop(t *testing.T, sig syscall.Signal) []string {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after signal")
	}
	return d.lines
}

// TestDaemonSIGKILLBetweenAbsorbsResumesBitIdentical is the acceptance
// criterion end to end: a dpar2d process SIGKILLed between absorbs — no
// drain, no shutdown hook, only the after-absorb checkpoint on disk — is
// restarted on the same state directory and the session continues with
// results bit-identical to a never-interrupted in-process stream.
func TestDaemonSIGKILLBetweenAbsorbsResumesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real daemon binary")
	}
	bin := buildDaemon(t)
	state := t.TempDir()
	ctx := context.Background()

	gBase := repro.NewRNG(31)
	base := repro.LowRankTensor(gBase, []int{40, 35, 45}, 25, 4, 0.02)
	g := repro.NewRNG(32)
	batch1 := repro.LowRankTensor(g, []int{30, 25}, 25, 4, 0.02)
	batch2 := repro.LowRankTensor(g, []int{35, 40}, 25, 4, 0.02)
	rank, seed, iters, tol := 4, uint64(9), 8, 0.0
	spec := service.SpecRequest{Rank: &rank, Seed: &seed, MaxIters: &iters, Tol: &tol}

	d1 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-state", state, "-threads", "2")
	c1 := service.NewClient("http://"+d1.addr, nil)
	info, err := c1.UploadTensor(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateStream(ctx, service.StreamCreateRequest{
		StreamID: "sess", TensorID: info.TensorID, Spec: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Absorb(ctx, "sess", batch1); err != nil {
		t.Fatal(err)
	}
	d1.stop(t, syscall.SIGKILL) // between absorbs: hard kill, nothing flushed

	d2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-state", state, "-threads", "2")
	c2 := service.NewClient("http://"+d2.addr, nil)
	resumed, err := c2.StreamInfo(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Durable {
		t.Fatalf("stream not resumed after SIGKILL: %+v", resumed)
	}
	if want := base.K() + batch1.K(); resumed.K != want {
		t.Fatalf("resumed K=%d, want %d", resumed.K, want)
	}
	if resumed.Spec.Rank != rank || resumed.Spec.Seed != seed {
		t.Fatalf("resumed spec lost: %+v", resumed.Spec)
	}
	if _, err := c2.Absorb(ctx, "sess", batch2); err != nil {
		t.Fatal(err)
	}
	served, err := c2.StreamResultBytes(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}

	// Graceful SIGTERM shutdown of the survivor: clean exit, full drain log.
	lines := d2.stop(t, syscall.SIGTERM)
	if !d2.cmd.ProcessState.Success() {
		t.Fatalf("SIGTERM exit: %v (stdout %q)", d2.cmd.ProcessState, lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "dpar2d: draining") || !strings.Contains(joined, "dpar2d: stopped") {
		t.Fatalf("drain log missing from %q", joined)
	}

	// Reference: the identical stream, never interrupted, fully in-process.
	eng := repro.NewEngine(repro.WithEngineThreads(2))
	defer eng.Close()
	st, err := eng.NewStream(ctx, base,
		repro.WithRank(rank), repro.WithSeed(seed),
		repro.WithMaxIters(iters), repro.WithTolerance(tol))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, batch1.Slices); err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, batch2.Slices); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataio.WriteResult(&want, st.Result()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatal("daemon stream after SIGKILL+restart differs from the uninterrupted stream bits")
	}
}

// TestRunServesAndDrains exercises the daemon body in-process (and so under
// -race): serve, answer one decomposition, then drain cleanly on ctx cancel.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-threads", "2"},
			io.Discard, io.Discard, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	client := service.NewClient("http://"+addr, nil)
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	g := repro.NewRNG(3)
	ten := repro.LowRankTensor(g, []int{20, 25}, 15, 3, 0.05)
	info, err := client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	rank, iters := 3, 5
	res, _, err := client.Decompose(ctx, service.DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     service.SpecRequest{Rank: &rank, MaxIters: &iters},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness <= 0 {
		t.Fatalf("implausible fitness %v", res.Fitness)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestRunFlagValidation pins the CLI's refusal of inconsistent flags.
func TestRunFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"cache_without_state": {"-cache-mb", "64"},
		"quota_queued_alone":  {"-quota-queued", "4"},
		"quota_running_alone": {"-quota-running", "2"},
		"unknown_flag":        {"-no-such-flag"},
		"bad_listen_addr":     {"-addr", "203.0.113.7:bogus"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(context.Background(), args, io.Discard, io.Discard, nil); err == nil {
				t.Fatalf("run(%v) accepted invalid flags", args)
			}
		})
	}
}
