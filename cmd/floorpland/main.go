// Command floorpland serves the floorplanner over HTTP: jobs are submitted
// as JSON netlists (singly or as batches), solved by a bounded worker pool
// with per-job timeouts, cached by content hash, and observable via
// /healthz and /metrics. With -data-dir the job table is durable: every
// state transition is appended to a write-ahead journal, and a restarted
// daemon replays the journal — finished jobs come back as history,
// interrupted ones re-run automatically.
//
// Usage:
//
//	floorpland                                # listen on :8080, GOMAXPROCS workers
//	floorpland -addr :9090 -workers 2 -v
//	floorpland -job-timeout 2m -queue 16 -cache 64
//	floorpland -data-dir /var/lib/floorpland -fsync always
//	floorpland -version
//
// On SIGTERM/SIGINT the daemon drains gracefully: it stops accepting
// submissions, gives running solves -drain-timeout to finish, journals
// whatever is still unfinished, and exits. See docs/SERVICE.md for the API
// and durability guarantees.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdpfloor/internal/jobstore"
	"sdpfloor/internal/service"
	"sdpfloor/internal/version"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("floorpland: ")

	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "concurrent solver goroutines (0 = GOMAXPROCS)")
		solveWork    = flag.Int("solve-workers", 0, "per-solve kernel parallelism (0 = GOMAXPROCS/workers)")
		queueDepth   = flag.Int("queue", 64, "maximum queued-but-not-running jobs")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "default per-job solve timeout")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Minute, "cap on per-job timeouts requested by clients")
		cacheSize    = flag.Int("cache", 128, "result cache entries")
		traceDepth   = flag.Int("trace-depth", 4096, "per-job solver-telemetry ring size (newest events kept)")
		dataDir      = flag.String("data-dir", "", "journal directory for crash-safe jobs (empty = in-memory only)")
		fsyncMode    = flag.String("fsync", "interval", "journal fsync policy: always, interval, or off")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for running solves on SIGTERM before they are checkpointed")
		verbose      = flag.Bool("v", false, "log job lifecycle events")
		showVersion  = flag.Bool("version", false, "print the build stamp and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("floorpland", version.Stamp())
		return
	}
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments: %v", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	cfg := service.Config{
		Workers:        *workers,
		SolveWorkers:   *solveWork,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		CacheSize:      *cacheSize,
		TraceDepth:     *traceDepth,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	if *dataDir != "" {
		mode, err := jobstore.ParseFsyncMode(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		journal, replay, err := jobstore.Open(jobstore.Options{
			Dir:   *dataDir,
			Fsync: mode,
			Logf:  log.Printf,
		})
		if err != nil {
			log.Fatalf("open journal: %v", err)
		}
		defer journal.Close()
		cfg.Journal = journal
		cfg.Replay = replay
	}

	s := service.New(cfg)

	srv := &http.Server{
		Addr:        *addr,
		Handler:     s.Handler(),
		ReadTimeout: 30 * time.Second,
		// No WriteTimeout: trace follow streams (?follow=1) stay open for
		// the life of a solve. Non-streaming handlers respond in
		// milliseconds and are bounded by the per-job solve timeout anyway.
	}

	errCh := make(chan error, 1)
	go func() {
		durability := "in-memory"
		if *dataDir != "" {
			durability = fmt.Sprintf("journal %s (fsync=%s)", *dataDir, *fsyncMode)
		}
		log.Printf("%s listening on %s (%d workers, queue %d, cache %d, default timeout %s, %s)",
			version.Stamp(), *addr, s.Workers(), *queueDepth, *cacheSize, *jobTimeout, durability)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %s, draining (grace %s)", sig, *drainTimeout)
	case err := <-errCh:
		log.Fatal(err)
	}

	// Drain the pool first: new submissions are refused (503
	// shutting_down), queued jobs stay journaled for replay, running solves
	// get the grace period, and whatever is still going at the deadline is
	// checkpointed as interrupted. Trace followers see their jobs reach a
	// terminal state and disconnect, so the HTTP shutdown afterwards is
	// quick. Without a journal Drain degrades to a graceful Close.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("stopped")
}
