// Command vsserved runs metascreen as a screening service: an HTTP JSON
// API over a bounded job queue and a parallel worker pool, with
// Prometheus metrics, structured logs and per-job execution traces — the
// paper's virtual-screening funnel as a server.
//
//	vsserved -addr :8080 -workers 4 -queue 64
//	curl -s -X POST localhost:8080/v1/screens \
//	    -d '{"dataset":"2BSM","library":8,"metaheuristic":"M3","seed":7}'
//	curl -s localhost:8080/v1/screens/job-000001
//	curl -s localhost:8080/v1/screens/job-000001/trace > job.trace.json
//
// The trace payload is Chrome trace format (Perfetto, chrome://tracing).
// -debug-addr serves /debug/pprof/, /debug/vars and /debug/snapshot on a
// second listener. Overload protection (adaptive concurrency limiter,
// weighted-fair priority queue, deadline shedding, device circuit breaker,
// graceful degradation) and storage-degraded mode (507 + Retry-After
// while the journal disk is full or failing, -on-full) are built in.
//
// One binary, three roles (-role), one job model:
//
//	node         the default single-node service
//	worker       a node that also registers with and heartbeats to a
//	             coordinator (-coordinator, -advertise, -heartbeat)
//	coordinator  a node whose runner is the chunk pool instead of the
//	             local engine: registered workers pull each running
//	             screen in chunks, costliest ligands first; the merged
//	             ranking is byte-identical to one node's, a dead worker's
//	             unfinished ligands go back to the pool, and -data-dir
//	             lets a restarted coordinator resume mid-screen
//
// Every role reads the same service flags (-workers, -queue, -data-dir,
// -fsync, the admission flags, ...); on a coordinator -workers bounds how
// many screens are supervised at once and defaults to the queue bound.
// The coordinator's worker requests run under timeouts, bounded retries
// and epoch fencing (-request-timeout, -worker-attempts, ...). -chaos
// injects deterministic faults for drills from one plan and one
// -chaos-seed: each clause goes by its kind to the network (netsim, a
// coordinator's worker requests) or to the disk (fsim, the journal).
//
// SIGINT/SIGTERM drain gracefully: intake stops, queued jobs are
// cancelled, running jobs finish (up to -drain-timeout, then they are
// interrupted between metaheuristic generations). A coordinator interrupts
// its screens at once and leaves their chunks running on the workers. With
// -data-dir an interrupted job is not over: the next boot resumes it.
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
	"github.com/metascreen/metascreen/internal/faultplan"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/netsim"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof + snapshots (empty = disabled)")
	workers := flag.Int("workers", 0, "concurrent jobs: screening workers on a node (0 = all CPUs), supervised screens on a coordinator (0 = the queue bound)")
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
	chaos := flag.String("chaos", "", "fault plan: network clauses hit coordinator->worker requests (coordinator only), disk clauses hit journal I/O, e.g. '127.0.0.1:8081:partition@3s+4s,*.wal:fsync-fail@0.01' (empty = disabled)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the -chaos plan's probabilistic faults")
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
	logf := func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) }
	chaosSpecs, err := faultplan.Route(*chaos, netsim.Kinds, fsim.Kinds)
	if err != nil {
		fatal(err)
	}
	netPlan, err := netsim.ParsePlan(chaosSpecs[0])
	if err != nil {
		fatal(err)
	}
	diskPlan, err := fsim.ParsePlan(chaosSpecs[1])
	if err != nil {
		fatal(err)
	}
	if len(netPlan.Rules) > 0 && *role != "coordinator" {
		fatal(fmt.Errorf("-chaos network clauses %q need -role coordinator (only a coordinator sends worker requests)", netPlan))
	}
	var diskFS fsim.FS
	if len(diskPlan.Rules) > 0 {
		diskFS = fsim.New(diskPlan, fsim.Config{Seed: *chaosSeed, Logf: logf})
		logger.Warn("disk chaos plan active on durability I/O", "plan", diskPlan.String(), "seed", *chaosSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := service.Config{
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
	}
	var svc server
	switch *role {
	case "coordinator":
		var transport http.RoundTripper
		if len(netPlan.Rules) > 0 {
			transport = netsim.New(netPlan, netsim.Config{Seed: *chaosSeed, Logf: logf})
			logger.Warn("chaos plan active on worker requests", "plan", netPlan.String(), "seed", *chaosSeed)
		}
		svc, err = dist.New(dist.Config{
			Service:          cfg,
			HeartbeatTimeout: *workerTimeout,
			PollInterval:     *pollInterval,
			RequestTimeout:   *requestTimeout,
			RequestAttempts:  *workerAttempts,
			RetryBaseDelay:   *workerRetryDelay,
			FailThreshold:    *workerFailThreshold,
			MaxResponseBytes: *workerResponseLimit,
			Transport:        transport,
		})
	case "worker":
		if *coordinator == "" {
			fatal(errors.New("-role worker requires -coordinator"))
		}
		fallthrough
	case "node":
		svc, err = service.New(cfg)
	default:
		fatal(fmt.Errorf("unknown -role %q (want node, worker or coordinator)", *role))
	}
	if err != nil {
		fatal(err)
	}
	if rec := svc.Recovery(); rec.ReplayedRecords > 0 || rec.RecoveredJobs > 0 {
		logger.Info("recovered jobs from journal",
			"jobs", rec.RecoveredJobs, "records", rec.ReplayedRecords)
	}
	server := &http.Server{Addr: *addr, Handler: svc.Handler()}
	// A held /partial poll must not stretch the HTTP shutdown by its wait:
	// start the service drain with it.
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
		go dist.RegisterLoop(ctx, *coordinator, adv, *heartbeat, logf)
		logger.Info("registering with coordinator", "coordinator", *coordinator, "advertise", adv)
	}

	// Under -on-full stop a full or failing journal disk drains the process
	// and exits non-zero, for supervisors that prefer rescheduling to a
	// read-only node; under the default, degrade, full stays nil.
	var full <-chan struct{}
	if *onFull == "stop" {
		full = svc.StorageFull()
	}
	stoppedOnFull := false
	select {
	case <-ctx.Done():
		logger.Info("draining")
	case <-full:
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
		logger.Error("drain deadline exceeded, running jobs interrupted", "err", err)
		os.Exit(1)
	}
	if stoppedOnFull {
		// Non-zero so a restart=on-failure supervisor reschedules the node.
		logger.Info("drained after storage failure")
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// server is what every role runs: a service.Service, or a dist.Coordinator
// built around one.
type server interface {
	Handler() http.Handler
	DebugHandler() http.Handler
	Drain()
	Shutdown(context.Context) error
	StorageFull() <-chan struct{}
	Recovery() service.RecoveryStats
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
