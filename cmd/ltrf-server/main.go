// Command ltrf-server exposes the experiment engine as a fault-tolerant
// HTTP/JSON service: point evaluations and whole experiments on demand,
// backed by an in-memory memo and (with -store) a crash-safe persistent
// result store that survives restarts, quarantines corruption, and never
// blocks serving on a failing disk.
//
// Usage:
//
//	ltrf-server -addr :8080 -store /var/lib/ltrf/results
//	curl -s localhost:8080/v1/eval -d '{"design":"LTRF","workload":"sgemm"}' | jq .
//	curl -sN localhost:8080/v1/sweep -d '{"designs":["BL","LTRF"],"workloads":["sgemm"],"latency_xs":[1,4]}'
//	curl -s localhost:8080/v1/meta | jq .
//
// Responses are compact one-line JSON; pipe them through jq to read them.
//
// Multiple replicas pointed at the same -store directory coalesce cold
// computes through per-point leases (each point simulated once across the
// fleet; see "Scaling out ltrf-server" in the README).
//
// SIGINT/SIGTERM trigger a graceful drain: new work is refused with 503
// while in-flight evaluations finish (bounded by -drain-timeout), so a
// deploy never tears down a half-written sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/server"
	"ltrf/internal/store"

	// Register the hidden fault-injection designs (fault-panic, fault-hang).
	// They are excluded from every listing and reachable only by explicit
	// name, so linking them in lets operators run live fault drills (panic
	// isolation, timeout handling) without exposing anything by default.
	_ "ltrf/internal/faultinject"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		storeDir     = flag.String("store", "", "crash-safe persistent result store directory (empty = in-memory memo only)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent evaluations (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "queued requests beyond in-flight before shedding 429s (0 = 4x in-flight)")
		evalTimeout  = flag.Duration("timeout", 2*time.Minute, "per-request evaluation deadline (overridable per request via timeout_ms)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight evaluations")
		maxBody      = flag.Int64("max-body", 1<<20, "POST body cap in bytes (413 beyond)")
		maxSweep     = flag.Int("max-sweep-points", 0, "grid-size cap for /v1/sweep (0 = 4096)")
		sweepBeat    = flag.Duration("sweep-heartbeat", 10*time.Second, "NDJSON heartbeat interval through cold sweep stretches")
		leaseTTL     = flag.Duration("lease-ttl", 0, "cold-point lease deadline for cross-replica coalescing (0 = 2m; needs -store)")
	)
	flag.Parse()

	var eng *exp.Engine
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Version: exp.StoreVersion()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltrf-server:", err)
			return 1
		}
		eng = exp.NewEngineWithStore(st)
		if *leaseTTL > 0 {
			eng.SetLeaseTTL(*leaseTTL)
		}
		log.Printf("persistent store at %s (version %s)", *storeDir, exp.StoreVersion())
	} else {
		eng = exp.NewEngine()
		log.Print("no -store: results are memoized in memory only and lost on restart")
	}

	srv, err := server.New(server.Config{
		Engine:         eng,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *evalTimeout,
		MaxBodyBytes:   *maxBody,
		MaxSweepPoints: *maxSweep,
		SweepHeartbeat: *sweepBeat,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-server:", err)
		return 1
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ltrf-server:", err)
		return 1
	case <-ctx.Done():
	}

	// Drain order matters: refuse new work first, then wait for in-flight
	// evaluations, then close listeners — so no request admitted before the
	// signal is ever cut off mid-simulation.
	log.Print("signal received; draining")
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Print("done")
	return 0
}
