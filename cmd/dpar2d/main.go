// Command dpar2d serves PARAFAC2 decomposition over HTTP: the daemon form
// of the repro Engine, exposing tensor upload, synchronous and async
// decomposition, durable streaming sessions, and admission statistics via
// the internal/service API (docs/SERVICE.md).
//
// -state is the Engine's state directory (repro.WithStateDir). Stream
// sessions are checkpointed under it after create and after every absorb,
// and with -cache-mb the result cache persists there across restarts: a
// daemon killed between absorbs and restarted on the same state directory
// resumes every session bit-identically.
//
// Examples:
//
//	dpar2d -addr :8080 -threads 6
//	dpar2d -addr 127.0.0.1:9000 -state /var/lib/dpar2d -cache-mb 256 \
//	       -quota-queued 8 -quota-running 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dpar2d:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: parse flags, build the Engine and
// Server, serve until ctx is cancelled, then drain gracefully — stop
// accepting connections, finish in-flight requests, and close the Engine.
// onReady (may be nil) receives the bound address once the listener is up;
// tests use it to learn the port before issuing requests.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("dpar2d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		stateDir     = fs.String("state", "", "state directory: durable stream checkpoints (and, with -cache-mb, the result cache)")
		cacheMB      = fs.Int64("cache-mb", 0, "result-cache budget in MiB (0 = caching off; requires -state)")
		threads      = fs.Int("threads", 0, "pool worker threads (0 = the library default)")
		jobs         = fs.Int("jobs", 4, "concurrent decomposition jobs")
		queueDepth   = fs.Int("queue", 32, "admission queue depth")
		quotaQueued  = fs.Int("quota-queued", 0, "per-tenant queued-job quota (0 = no quotas)")
		quotaRunning = fs.Int("quota-running", 0, "per-tenant running-job quota (used with -quota-queued)")
		maxBodyMB    = fs.Int64("max-body-mb", 0, "request body cap in MiB (0 = the service default)")
		drainTimeout = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheMB > 0 && *stateDir == "" {
		return errors.New("-cache-mb requires -state")
	}
	if (*quotaQueued > 0) != (*quotaRunning > 0) {
		return errors.New("-quota-queued and -quota-running must be set together")
	}

	engOpts := []repro.EngineOption{
		repro.WithJobConcurrency(*jobs),
		repro.WithQueueDepth(*queueDepth),
	}
	if *threads != 0 {
		engOpts = append(engOpts, repro.WithEngineThreads(*threads))
	}
	if *quotaQueued > 0 {
		engOpts = append(engOpts, repro.WithTenantQuota(*quotaQueued, *quotaRunning))
	}
	if *stateDir != "" {
		engOpts = append(engOpts, repro.WithStateDir(*stateDir))
	}
	if *cacheMB > 0 {
		engOpts = append(engOpts, repro.WithResultCache(*cacheMB<<20))
	}

	eng := repro.NewEngine(engOpts...)
	defer eng.Close()

	srv, err := service.New(service.Config{Engine: eng, MaxBodyBytes: *maxBodyMB << 20})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dpar2d: listening on %s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve never returns nil; any return here is a listener failure.
		return err
	case <-ctx.Done():
	}

	// Graceful drain: Shutdown stops the listener and waits for in-flight
	// requests (bounded by -drain), then the Engine drains its accepted
	// jobs. Every durable session is already on disk: create and absorb
	// write it before they reply.
	fmt.Fprintln(stdout, "dpar2d: draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(shCtx)
	<-serveErr // Serve has returned http.ErrServerClosed
	eng.Close()
	fmt.Fprintln(stdout, "dpar2d: stopped")
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	return nil
}
