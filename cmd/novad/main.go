// Command novad is the long-running allocation server: the novac
// pipeline behind an HTTP/JSON API with a content-addressed compile
// cache in front of the ILP solver (DESIGN.md §12).
//
//	novad [-addr :7433] [-workers N] [-queue N] [-cache-entries N]
//	      [-cache-bytes N] [-solve-timeout 0] [-drain-timeout 30s]
//	      [-j N] [-fault plan]
//
// SIGTERM/SIGINT triggers a graceful drain: the listener closes, new
// async submissions are refused with 503, queued jobs run to
// completion (bounded by -drain-timeout), and the process exits 0.
//
// Compile requests hit three tiers: an exact output cache keyed by the
// source text, an exact model cache keyed by the canonicalized ILP's
// content hash, and otherwise a cold solve. See internal/server for
// the endpoints and request limits, and README "Serving" for a worked
// example.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/mip"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7433", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	workers := flag.Int("workers", 2, "max concurrent solves")
	queue := flag.Int("queue", 64, "async job queue depth")
	cacheEntries := flag.Int("cache-entries", 512, "max cache entries (model + output tiers)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "max cache payload bytes")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-request solve deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline for queued async jobs")
	jflag := flag.Int("j", 0, "ILP tree-search workers per solve (0 = all cores)")
	faultSpec := flag.String("fault", "", "fault plan, e.g. cache/corrupt@1 (see internal/fault)")
	flag.Parse()

	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "novad: -fault: %v\n", err)
			os.Exit(2)
		}
		fault.Install(plan)
	}

	srv := server.New(server.Config{
		Cache:        cache.New(cache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes}),
		Workers:      *workers,
		QueueDepth:   *queue,
		SolveTimeout: *solveTimeout,
		MIP:          &mip.Options{Workers: *jflag},
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "novad: %v\n", err)
		os.Exit(1)
	}
	// The resolved address is printed (not just the flag value) so
	// scripts using :0 can find the port.
	fmt.Printf("novad: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "novad: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		// Graceful drain: stop accepting new connections, reject new
		// async submissions (503), and run every queued job to
		// completion before exiting 0 — clients polling /jobs/ see
		// their work finish, not vanish.
		fmt.Fprintf(os.Stderr, "novad: %v, draining\n", s)
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer hcancel()
		hs.Shutdown(hctx)
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer dcancel()
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "novad: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "novad: drained, exiting")
	}
}
