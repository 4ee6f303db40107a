// Command vsserved runs metascreen as a screening service: an HTTP JSON
// API over a bounded job queue and a parallel worker pool, with
// Prometheus metrics, structured logs and per-job execution traces — the
// paper's virtual-screening funnel as a server.
//
// Usage:
//
//	vsserved -addr :8080 -workers 4 -queue 64
//
// Submit a screen, poll it, read the ranking, download its timeline:
//
//	curl -s -X POST localhost:8080/v1/screens \
//	    -d '{"dataset":"2BSM","library":8,"metaheuristic":"M3","seed":7}'
//	curl -s localhost:8080/v1/screens/job-000001
//	curl -s localhost:8080/v1/screens/job-000001/trace > job.trace.json
//	curl -s localhost:8080/metrics
//
// The trace payload is Chrome trace format; load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing. With -debug-addr set, a second
// listener serves /debug/pprof/, /debug/vars and /debug/snapshot.
//
// Overload protection is built in: an adaptive concurrency limiter
// (-target-latency, -limiter-min/-limiter-max), a weighted-fair priority
// queue (requests carry "priority" and a client ID), deadline-aware
// shedding ("deadline_seconds" requests are rejected with 429 +
// Retry-After when unmeetable), a device-health circuit breaker
// (-breaker-threshold, -breaker-cooldown) and graceful degradation
// (-degrade-at, -degrade-factor).
//
// Scale-out runs the same binary in three roles (-role):
//
//	node         the default single-node service above
//	worker       a node that also registers with and heartbeats to a
//	             coordinator (-coordinator, -advertise, -heartbeat)
//	coordinator  no local screening: the registered workers pull each
//	             submitted screen in chunks, costliest ligands first and
//	             shrinking toward the tail; the coordinator streams the
//	             partial rankings back and merges them deterministically;
//	             worker death returns unfinished ligands to the pool, and
//	             -data-dir journals distributed state so a restarted
//	             coordinator resumes mid-screen
//
// Coordinator→worker requests run under per-request timeouts with
// bounded, jittered retries and epoch fencing against zombie workers
// (-request-timeout, -worker-attempts, -worker-retry-delay,
// -worker-fail-threshold, -worker-response-limit). A slow worker simply
// pulls fewer chunks; once a screen's pool is dry, an idle worker backs up
// a chunk that has run for -worker-timeout, first copy to complete wins.
// A -chaos plan (with
// -chaos-seed) injects deterministic network faults — partitions,
// blackholes, latency, request duplication — into those requests for
// replayable chaos drills; see internal/netsim.
//
// Storage faults get the same treatment: a -disk-chaos plan (with
// -disk-chaos-seed) injects deterministic disk faults — EIO, ENOSPC,
// fsync failures, torn writes, bit rot — into journal I/O; see
// internal/fsim. When the disk fills or fail-stops, a node or a
// coordinator degrades to read-only (submissions get 507 + Retry-After)
// and recovers in place once space frees; -on-full stop drains and exits
// non-zero instead, for supervised deployments that prefer rescheduling.
//
// SIGINT/SIGTERM drain gracefully: intake stops, queued jobs are
// cancelled, running jobs finish (up to -drain-timeout, then they are
// force-cancelled between metaheuristic generations).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/dist"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/netsim"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof + snapshots (empty = disabled)")
	workers := flag.Int("workers", 0, "concurrent screening workers (0 = all CPUs)")
	queue := flag.Int("queue", 64, "queue bound; submissions beyond it get HTTP 429")
	screenWorkers := flag.Int("screen-workers", 0, "per-job ligand parallelism (0 = all CPUs)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
	maxAttempts := flag.Int("max-attempts", 0, "executions per job with transient failures (0 = 3, 1 disables retries)")
	retryDelay := flag.Duration("retry-delay", 0, "base backoff before the first retry, doubled per retry (0 = 100ms)")
	dataDir := flag.String("data-dir", "", "durability directory (the journal); empty = in-memory only")
	fsync := flag.String("fsync", "always", "journal fsync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "under -fsync interval, the longest a journal record stays unsynced: appends sync past it and an idle journal is flushed in the background (0 = 100ms)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "journal a running job's completed ligands as one checkpoint record every N ligands; a crash re-docks up to N-1 already completed ligands (0 = 1)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	targetLatency := flag.Duration("target-latency", 0, "attempt latency the adaptive concurrency limiter steers toward (0 = disabled)")
	limiterMin := flag.Int("limiter-min", 0, "adaptive concurrency floor (0 = 1)")
	limiterMax := flag.Int("limiter-max", 0, "adaptive concurrency ceiling (0 = worker count)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive all-device losses before the circuit opens (0 = 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long the open circuit rejects machine jobs before probing (0 = 5s)")
	degradeAt := flag.Float64("degrade-at", 0, "queue fill fraction above which jobs run with reduced effort (0 = 0.75)")
	degradeFactor := flag.Float64("degrade-factor", 0, "search-scale multiplier applied to degraded jobs (0 = 0.5)")
	role := flag.String("role", "node", "process role: node, worker or coordinator")
	coordinator := flag.String("coordinator", "", "coordinator base URL a worker registers with (worker role)")
	advertise := flag.String("advertise", "", "URL the coordinator should reach this worker at (default derived from -addr)")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker registration/heartbeat cadence")
	workerTimeout := flag.Duration("worker-timeout", 5*time.Second, "coordinator declares a worker dead after this heartbeat silence")
	pollInterval := flag.Duration("poll-interval", 100*time.Millisecond, "longest the coordinator holds one chunk poll on a worker, and its idle supervision cadence (not a latency floor: a finished chunk answers at once)")
	requestTimeout := flag.Duration("request-timeout", 0, "coordinator per-request deadline against a worker (0 = 15s)")
	workerAttempts := flag.Int("worker-attempts", 0, "tries per coordinator->worker request (0 = 3, 1 disables retries)")
	workerRetryDelay := flag.Duration("worker-retry-delay", 0, "base backoff between coordinator request retries, doubled and jittered (0 = 50ms)")
	workerFailThreshold := flag.Int("worker-fail-threshold", 0, "consecutive failed requests before a worker is declared dead (0 = 2)")
	workerResponseLimit := flag.Int64("worker-response-limit", 0, "byte cap on worker responses (0 = sized to the library limit)")
	chaos := flag.String("chaos", "", "netsim fault plan injected into coordinator->worker requests, e.g. '127.0.0.1:8081:partition@3s+4s' (empty = disabled)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the -chaos plan's probabilistic faults")
	diskChaos := flag.String("disk-chaos", "", "fsim fault plan injected into journal I/O (checkpoint records included), e.g. '*.wal:fsync-fail@0.01,*:enospc@1048576' (empty = disabled)")
	diskChaosSeed := flag.Uint64("disk-chaos-seed", 1, "seed for the -disk-chaos plan's probabilistic faults")
	onFull := flag.String("on-full", "degrade", "reaction to a full or failing journal disk, on every role: degrade (serve reads, 507 submissions) or stop (drain and exit 1)")
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fatal(err)
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	if *onFull != "degrade" && *onFull != "stop" {
		fatal(fmt.Errorf("unknown -on-full %q (want degrade or stop)", *onFull))
	}
	var diskFS fsim.FS
	if *diskChaos != "" {
		plan, perr := fsim.ParsePlan(*diskChaos)
		if perr != nil {
			fatal(perr)
		}
		diskFS = fsim.New(plan, fsim.Config{
			Seed: *diskChaosSeed,
			Logf: func(format string, args ...any) {
				logger.Warn(fmt.Sprintf(format, args...))
			},
		})
		logger.Warn("disk chaos plan active on durability I/O", "plan", plan.String(), "seed", *diskChaosSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The coordinator role runs no local screening engine: it is the
	// dist.Coordinator behind the same API surface.
	if *role == "coordinator" {
		var transport http.RoundTripper
		if *chaos != "" {
			plan, perr := netsim.ParsePlan(*chaos)
			if perr != nil {
				fatal(perr)
			}
			transport = netsim.New(plan, netsim.Config{
				Seed: *chaosSeed,
				Logf: func(format string, args ...any) {
					logger.Warn(fmt.Sprintf(format, args...))
				},
			})
			logger.Warn("chaos plan active on worker requests", "plan", plan.String(), "seed", *chaosSeed)
		}
		coord, err := dist.New(dist.Config{
			DataDir:          *dataDir,
			FS:               diskFS,
			SyncPolicy:       policy,
			HeartbeatTimeout: *workerTimeout,
			PollInterval:     *pollInterval,
			RequestTimeout:   *requestTimeout,
			RequestAttempts:  *workerAttempts,
			RetryBaseDelay:   *workerRetryDelay,
			FailThreshold:    *workerFailThreshold,
			MaxResponseBytes: *workerResponseLimit,
			Transport:        transport,
			Logger:           logger,
		})
		if err != nil {
			fatal(err)
		}
		server := &http.Server{Addr: *addr, Handler: coord.Handler()}
		stopDebug := serveDebug(*debugAddr, coord.DebugHandler(), logger)
		errCh := make(chan error, 1)
		go func() { errCh <- server.ListenAndServe() }()
		logger.Info("coordinator listening", "addr", *addr)
		stoppedOnFull := false
		select {
		case <-ctx.Done():
			logger.Info("draining")
		case <-fullStop(*onFull, coord.StorageFull()):
			logger.Error("storage degraded and -on-full=stop, draining")
			stoppedOnFull = true
		case err := <-errCh:
			fatal(err)
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := server.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("http shutdown failed", "err", err)
		}
		stopDebug()
		if err := coord.Shutdown(drainCtx); err != nil {
			logger.Error("coordinator drain deadline exceeded", "err", err)
			os.Exit(1)
		}
		if stoppedOnFull {
			logger.Info("drained after storage failure")
			os.Exit(1)
		}
		logger.Info("drained cleanly")
		return
	}
	if *role != "node" && *role != "worker" {
		fatal(fmt.Errorf("unknown -role %q (want node, worker or coordinator)", *role))
	}
	if *role == "worker" && *coordinator == "" {
		fatal(errors.New("-role worker requires -coordinator"))
	}

	svc, err := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		ScreenWorkers:   *screenWorkers,
		MaxAttempts:     *maxAttempts,
		RetryBaseDelay:  *retryDelay,
		DataDir:         *dataDir,
		FS:              diskFS,
		Fsync:           policy,
		FsyncInterval:   *fsyncInterval,
		CheckpointEvery: *checkpointEvery,
		Logger:          logger,
		Admission: admission.Config{
			TargetLatency:    *targetLatency,
			LimiterMin:       *limiterMin,
			LimiterMax:       *limiterMax,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			DegradeAt:        *degradeAt,
			DegradeFactor:    *degradeFactor,
		},
	})
	if err != nil {
		fatal(err)
	}
	if rec := svc.Recovery(); rec.ReplayedRecords > 0 || rec.RecoveredJobs > 0 {
		logger.Info("recovered jobs from journal",
			"jobs", rec.RecoveredJobs, "records", rec.ReplayedRecords)
	}
	server := &http.Server{Addr: *addr, Handler: svc.Handler()}
	// A coordinator's held /partial poll must not stretch the HTTP
	// shutdown by its wait: start the service drain with it.
	server.RegisterOnShutdown(svc.Drain)

	stopDebug := serveDebug(*debugAddr, svc.DebugHandler(), logger)

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "role", *role)

	if *role == "worker" {
		adv := *advertise
		if adv == "" {
			adv, err = advertiseFromAddr(*addr)
			if err != nil {
				fatal(err)
			}
		}
		go dist.RegisterLoop(ctx, *coordinator, adv, *heartbeat, func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		})
		logger.Info("registering with coordinator", "coordinator", *coordinator, "advertise", adv)
	}

	stoppedOnFull := false
	select {
	case <-ctx.Done():
		logger.Info("draining")
	case <-fullStop(*onFull, svc.StorageFull()):
		logger.Error("storage degraded and -on-full=stop, draining")
		stoppedOnFull = true
	case err := <-errCh:
		fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop taking connections first, then drain the job pool.
	if err := server.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown failed", "err", err)
	}
	stopDebug()
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Error("drain deadline exceeded, running jobs force-cancelled", "err", err)
		os.Exit(1)
	}
	if stoppedOnFull {
		// Non-zero so a restart=on-failure supervisor reschedules the node.
		logger.Info("drained after storage failure")
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// fullStop is the channel a role's main loop drains on under -on-full
// stop: its journal's StorageFull. Operators who prefer a stopped process
// over a read-only one (e.g. under an external supervisor that reschedules
// elsewhere) get a clean exit instead of 507s indefinitely. Under the
// default, degrade, it is nil and never fires.
func fullStop(onFull string, full <-chan struct{}) <-chan struct{} {
	if onFull != "stop" {
		return nil
	}
	return full
}

// serveDebug starts the debug listener (pprof, expvar, /debug/snapshot)
// for either role and returns its stop function; an empty addr disables
// it.
func serveDebug(addr string, h http.Handler, logger *slog.Logger) (stop func()) {
	if addr == "" {
		return func() {}
	}
	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug listener failed", "err", err)
		}
	}()
	logger.Info("debug listener up", "addr", addr)
	return func() { srv.Close() }
}

// advertiseFromAddr derives a worker's advertised URL from its listen
// address: ":8081" becomes "http://127.0.0.1:8081" (single-host default;
// multi-host deployments pass -advertise explicitly).
func advertiseFromAddr(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %w", addr, err)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsserved:", err)
	os.Exit(1)
}
