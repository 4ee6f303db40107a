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
// while the journal disk is full or failing) are built in.
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
// Every flag is checked before the journal opens: a negative count or
// duration, an unknown role or fsync policy, or a malformed -chaos plan
// exits 1.
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

	"github.com/metascreen/metascreen/internal/dist"
	"github.com/metascreen/metascreen/internal/faultplan"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/netsim"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	logger := o.service.Logger
	logf := func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) }
	if len(o.diskPlan.Rules) > 0 {
		o.service.FS = fsim.New(o.diskPlan, fsim.Config{Seed: o.chaosSeed, Logf: logf})
		logger.Warn("disk chaos plan active on durability I/O", "plan", o.diskPlan.String(), "seed", o.chaosSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var svc server
	if o.role == "coordinator" {
		if len(o.netPlan.Rules) > 0 {
			o.dist.Transport = netsim.New(o.netPlan, netsim.Config{Seed: o.chaosSeed, Logf: logf})
			logger.Warn("chaos plan active on worker requests", "plan", o.netPlan.String(), "seed", o.chaosSeed)
		}
		o.dist.Service = o.service
		svc, err = dist.New(o.dist)
	} else {
		svc, err = service.New(o.service)
	}
	if err != nil {
		fatal(err)
	}
	if rec := svc.Recovery(); rec.ReplayedRecords > 0 || rec.RecoveredJobs > 0 {
		logger.Info("recovered jobs from journal",
			"jobs", rec.RecoveredJobs, "records", rec.ReplayedRecords)
	}
	server := &http.Server{Addr: o.addr, Handler: svc.Handler()}
	// A held /partial poll must not stretch the HTTP shutdown by its wait:
	// start the service drain with it.
	server.RegisterOnShutdown(svc.Drain)

	stopDebug := serveDebug(o.debugAddr, svc.DebugHandler(), logger)

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Info("listening", "addr", o.addr, "role", o.role)

	if o.role == "worker" {
		go dist.RegisterLoop(ctx, o.coordinator, o.advertise, o.heartbeat, logf)
		logger.Info("registering with coordinator", "coordinator", o.coordinator, "advertise", o.advertise)
	}

	select {
	case <-ctx.Done():
		logger.Info("draining")
	case err := <-errCh:
		fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
	logger.Info("drained cleanly")
}

// options is a process's checked startup configuration: the service
// config every role runs, the coordinator's own settings and a worker's
// registration.
type options struct {
	addr, debugAddr, role      string
	coordinator, advertise     string
	heartbeat, drainTimeout    time.Duration
	fsync, logLevel, logFormat string
	chaos                      string
	chaosSeed                  uint64
	netPlan                    netsim.Plan
	diskPlan                   fsim.Plan
	service                    service.Config
	dist                       dist.Config // Service and Transport are set by main
}

// flagSet defines every vsserved flag, bound to o's fields.
func (o *options) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("vsserved", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug listen address for pprof + snapshots (empty = disabled)")
	fs.IntVar(&o.service.Workers, "workers", 0, "concurrent jobs: screening workers on a node (0 = all CPUs), supervised screens on a coordinator (0 = the queue bound)")
	fs.IntVar(&o.service.QueueDepth, "queue", service.DefaultQueueDepth, "queue bound; submissions beyond it get HTTP 429")
	fs.IntVar(&o.service.ScreenWorkers, "screen-workers", 0, "per-job ligand parallelism (0 = all CPUs)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
	fs.StringVar(&o.service.DataDir, "data-dir", "", "durability directory (the journal); empty = in-memory only")
	fs.StringVar(&o.fsync, "fsync", "always", "journal fsync policy: always, interval or never")
	fs.IntVar(&o.service.CheckpointEvery, "checkpoint-every", 0, "journal a running job's completed ligands as one checkpoint record every N ligands; a crash re-docks up to N-1 already completed ligands (0 = 1)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.StringVar(&o.logFormat, "log-format", "text", "log format: text or json")
	fs.DurationVar(&o.service.Admission.TargetLatency, "target-latency", 0, "attempt latency the adaptive concurrency limiter steers toward (0 = disabled)")
	fs.IntVar(&o.service.Admission.BreakerThreshold, "breaker-threshold", 0, "consecutive all-device losses before the circuit opens (0 = 3)")
	fs.DurationVar(&o.service.Admission.BreakerCooldown, "breaker-cooldown", 0, "how long the open circuit rejects machine jobs before probing (0 = 5s)")
	fs.StringVar(&o.role, "role", "node", "process role: node, worker or coordinator")
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL a worker registers with (worker role)")
	fs.StringVar(&o.advertise, "advertise", "", "URL the coordinator should reach this worker at (default derived from -addr)")
	fs.DurationVar(&o.heartbeat, "heartbeat", time.Second, "worker registration/heartbeat cadence")
	fs.DurationVar(&o.dist.HeartbeatTimeout, "worker-timeout", 5*time.Second, "coordinator declares a worker dead after this heartbeat silence")
	fs.DurationVar(&o.dist.PollInterval, "poll-interval", 100*time.Millisecond, "longest the coordinator holds one chunk poll on a worker, and its idle supervision cadence (not a latency floor: a finished chunk answers at once)")
	fs.DurationVar(&o.dist.RequestTimeout, "request-timeout", 0, "coordinator per-request deadline against a worker (0 = 15s)")
	fs.IntVar(&o.dist.RequestAttempts, "worker-attempts", 0, "tries per coordinator->worker request (0 = 3, 1 disables retries)")
	fs.DurationVar(&o.dist.RetryBaseDelay, "worker-retry-delay", 0, "base backoff between coordinator request retries, doubled and jittered (0 = 50ms)")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan: network clauses hit coordinator->worker requests (coordinator only), disk clauses hit journal I/O, e.g. '127.0.0.1:8081:partition@3s+4s,*.wal:fsync-fail@0.01' (empty = disabled)")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the -chaos plan's probabilistic faults")
	return fs
}

// parseFlags reads the command line and runs every startup check, so a
// bad value exits before the journal opens or a port is bound.
func parseFlags(args []string) (options, error) {
	var o options
	fs := o.flagSet()
	fs.Parse(args)

	// Every count and duration means "the default" at 0; a negative one
	// is a mistake, not a request for the default.
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			if v < 0 && err == nil {
				err = fmt.Errorf("-%s %d: want 0 or more", f.Name, v)
			}
		case time.Duration:
			if v < 0 && err == nil {
				err = fmt.Errorf("-%s %v: want 0 or more", f.Name, v)
			}
		}
	})
	if err != nil {
		return o, err
	}
	switch o.role {
	case "node", "coordinator":
	case "worker":
		if o.coordinator == "" {
			return o, errors.New("-role worker requires -coordinator")
		}
		if o.advertise == "" {
			if o.advertise, err = advertiseFromAddr(o.addr); err != nil {
				return o, err
			}
		}
	default:
		return o, fmt.Errorf("unknown -role %q (want node, worker or coordinator)", o.role)
	}
	if o.service.Fsync, err = wal.ParseSyncPolicy(o.fsync); err != nil {
		return o, err
	}
	if o.service.Logger, err = obs.NewLogger(o.logLevel, o.logFormat, os.Stderr); err != nil {
		return o, err
	}
	chaosSpecs, err := faultplan.Route(o.chaos, netsim.Kinds, fsim.Kinds)
	if err != nil {
		return o, err
	}
	if o.netPlan, err = netsim.ParsePlan(chaosSpecs[0]); err != nil {
		return o, err
	}
	if o.diskPlan, err = fsim.ParsePlan(chaosSpecs[1]); err != nil {
		return o, err
	}
	if len(o.netPlan.Rules) > 0 && o.role != "coordinator" {
		return o, fmt.Errorf("-chaos network clauses %q need -role coordinator (only a coordinator sends worker requests)", o.netPlan)
	}
	return o, nil
}

// server is what every role runs: a service.Service, or a dist.Coordinator
// built around one.
type server interface {
	Handler() http.Handler
	DebugHandler() http.Handler
	Drain()
	Shutdown(context.Context) error
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
