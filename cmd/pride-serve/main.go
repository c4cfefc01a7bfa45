// Command pride-serve runs the campaign server daemon: an HTTP/JSON front
// end over the same deterministic campaign stack the CLIs drive. Clients
// POST campaign specs (security, attack, ttfsim, replay) to /v1/jobs and
// poll /v1/jobs/<id>; results are cached by a key known at submit (the
// campaign's canonical checkpoint key, or a generated replay's spec), so a
// repeat submission with the same config+seed is served without recompute,
// and a submission interrupted by a daemon restart resumes from its
// persisted checkpoint. A replay of more than server.MaxReplayRecords
// records is rejected at submit.
//
// Usage:
//
//	pride-serve -data /var/lib/pride -addr :8321
//	pride-serve -data ./srv -addr 127.0.0.1:0 -progress-every 10s
//	pride-serve -data ./srv -job-retries 2 -job-deadline 5m -rate 10
//
// SIGTERM/SIGINT drains gracefully: /readyz flips to 503, new submissions
// are rejected, in-flight campaigns checkpoint, and the process exits 130
// when jobs were interrupted (they are reported resumable; resubmitting the
// identical spec after restart resumes from the checkpoint) or 0 after a
// clean idle drain. -chaos arms the deterministic fault injector across the
// server sites (server.enqueue, job.run, job.result-write, trace.read) and
// the campaign sites beneath them.
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
	"time"

	"pride/internal/cli"
	"pride/internal/faultinject"
	"pride/internal/server"
	"pride/internal/trialrunner"
)

func main() {
	ctx, cancel := cli.SignalContext()
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected. ctx cancellation (SIGTERM in
// production) triggers the graceful drain; the exit code is 130 when the
// drain interrupted jobs, matching the CLI interruption convention.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8321", "listen address (host:port; port 0 picks a free port)")
		dataDir  = fs.String("data", "", "data directory for the result cache and job checkpoints (required)")
		queue    = fs.Int("queue", 64, "job queue depth; a full queue rejects submissions with 503")
		jobs     = fs.Int("jobs", 2, "concurrent jobs")
		cworkers = fs.Int("campaign-workers", 0, "per-campaign trial worker pool size (0 = all cores)")
		retries  = fs.Int("job-retries", 2, "retry a failed job this many times before marking it failed")
		deadline = fs.Duration("job-deadline", 0, "per-attempt job deadline, e.g. 5m (0 disables); a timed-out attempt checkpoints and the retry resumes")
		backoff  = fs.Duration("job-backoff", 100*time.Millisecond, "first retry's backoff, doubling per attempt with deterministic jitter")
		maxBack  = fs.Duration("job-max-backoff", 5*time.Second, "backoff cap")
		rate     = fs.Float64("rate", 0, "per-client submission rate limit in requests/second (0 disables)")
		burst    = fs.Int("rate-burst", 10, "rate-limit burst size")
		progress = fs.Duration("progress-every", 0, "emit a structured progress line (job-lifecycle counters included) to stderr at this interval (0 disables)")
		chaos    = fs.String("chaos", "", `deterministic fault-injection schedule, e.g. "server.enqueue:nth=1;job.run:nth=1" ("" disables)`)
		chaosSd  = fs.Uint64("chaos-seed", 1, "seed for the -chaos schedule's probabilistic triggers")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dataDir == "" {
		fmt.Fprintln(stderr, "-data is required")
		return 2
	}
	var faults *faultinject.Injector
	if *chaos != "" {
		inj, err := faultinject.Parse(*chaosSd, *chaos)
		if err != nil {
			fmt.Fprintf(stderr, "-chaos: %v\n", err)
			return 2
		}
		faults = inj
	}

	srv, err := server.New(server.Config{
		DataDir:         *dataDir,
		QueueDepth:      *queue,
		JobWorkers:      *jobs,
		CampaignWorkers: *cworkers,
		JobRetry: trialrunner.RetryPolicy{
			Attempts:   *retries + 1,
			Deadline:   *deadline,
			Backoff:    *backoff,
			MaxBackoff: *maxBack,
		},
		RateLimit: *rate,
		RateBurst: *burst,
		Faults:    faults,
		Log:       stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The resolved address line is load-bearing: scripts and the CI smoke
	// job parse it to find a port-0 listener.
	fmt.Fprintf(stderr, "pride-serve listening on %s data=%s\n", ln.Addr(), *dataDir)

	srv.Start()
	stopReporter := srv.Campaign().StartReporter(ctx, stderr, *progress)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopReporter()
		srv.Drain()
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: flip readiness, reject new work, checkpoint
	// in-flight campaigns, then close the listener.
	fmt.Fprintln(stderr, "draining: waiting for in-flight jobs to checkpoint")
	drained := srv.Drain()
	stopReporter()
	if *progress > 0 {
		fmt.Fprintln(stderr, srv.Campaign().Line())
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, err)
	}
	if drained > 0 {
		fmt.Fprintf(stderr, "interrupted: %d job(s) resumable; restart the daemon and resubmit the same specs to resume from their checkpoints\n", drained)
		return cli.ExitInterrupted
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return 0
}
