// Package service turns the metascreen engine into a long-running
// screening service: submitted screens become queued jobs, a bounded
// worker pool runs them through a Runner — the local engine, or a
// coordinator's chunk pool (internal/dist) — and an HTTP JSON API plus
// Prometheus /metrics expose the whole lifecycle. Its contracts:
//
//   - Admission control: a full queue rejects with 429 instead of
//     buffering unbounded memory.
//   - Durability: with a data dir every 202 — submit or cancel — is
//     journaled first, and interrupted jobs resume on the next boot.
//   - Determinism: a job's ranking is byte-identical to the same screen
//     run through the library API with the same request and seed.
//   - Graceful drain: Shutdown stops intake, cancels queued jobs and lets
//     running ones finish until its context expires.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/trace"
	"github.com/metascreen/metascreen/internal/wal"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent screening workers;
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started jobs;
	// 0 means 64.
	QueueDepth int
	// ScreenWorkers bounds the per-job ligand parallelism handed to
	// core.ScreenCtx; 0 means one goroutine per CPU (fine for a single
	// job at a time; set to 1 when Workers is large to avoid
	// oversubscription).
	ScreenWorkers int
	// MaxAttempts bounds how many times a job whose failures classify as
	// transient is executed before it is failed; 0 means 3, 1 disables
	// retries. Permanent failures never retry.
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry; it doubles
	// per retry (jittered, capped at 5s). 0 means 100ms.
	RetryBaseDelay time.Duration

	// DataDir enables durability: job lifecycle events and per-job
	// checkpoint records are journaled to <DataDir>/<Journal>, so a crashed
	// process resumes its jobs on the next boot over the same directory.
	// Empty keeps everything in memory (the pre-durability behaviour).
	DataDir string
	// Journal names the journal's directory under DataDir; empty means
	// "journal". A coordinator's is "dist-journal".
	Journal string
	// Fsync is the journal's fsync policy; the zero value is
	// wal.SyncAlways. Only meaningful with DataDir.
	Fsync wal.SyncPolicy
	// FsyncInterval is the wal.SyncInterval cadence: the longest a
	// journaled record stays unsynced; 0 means 100ms.
	FsyncInterval time.Duration
	// CheckpointEvery journals a running job's newly completed ligands as
	// one checkpoint record after every N of them; 0 means 1 (a record
	// per ligand).
	CheckpointEvery int
	// CompactBytes is the compaction floor: the journal is compacted into
	// per-job snapshots once it is past both this size and twice its size
	// after the last compaction; 0 means 4 MiB.
	CompactBytes int64
	// FS is the filesystem the journal writes through; nil means the real
	// one. The -chaos flag's disk clauses and the crash-point explorer
	// inject a fsim.Faulty here.
	FS fsim.FS

	// Admission tunes overload protection (adaptive concurrency limiter,
	// circuit breaker, deadline shedding, graceful degradation). Zero
	// fields take their documented defaults; Workers is seeded from
	// Config.Workers when unset. See package admission.
	Admission admission.Config

	// Clock is the service's time source; nil means time.Now. Tests pin
	// it so admission decisions and timestamps are deterministic.
	Clock func() time.Time

	// Runner runs the jobs; nil means the local runner, which docks them
	// in this process. A distributed coordinator supplies its chunk pool.
	Runner Runner

	// Logger receives the service's structured logs; every job-scoped
	// record carries a "job" attribute for correlation. Nil discards.
	Logger *slog.Logger
}

// DefaultQueueDepth is the queue bound when Config.QueueDepth is unset.
const DefaultQueueDepth = 64

// NonNegative returns an error naming field when v is negative. Every
// count and duration of a Config means its default at 0; a negative one is
// a mistake, not a request for the default.
func NonNegative[T ~int | ~int64](field string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s %v: want 0 (the default) or more", field, v)
	}
	return nil
}

// validate rejects negative counts and durations before any of them is
// defaulted or journaled.
func (c Config) validate() error {
	a := c.Admission
	return errors.Join(
		NonNegative("Workers", c.Workers),
		NonNegative("QueueDepth", c.QueueDepth),
		NonNegative("ScreenWorkers", c.ScreenWorkers),
		NonNegative("MaxAttempts", c.MaxAttempts),
		NonNegative("RetryBaseDelay", c.RetryBaseDelay),
		NonNegative("FsyncInterval", c.FsyncInterval),
		NonNegative("CheckpointEvery", c.CheckpointEvery),
		NonNegative("CompactBytes", c.CompactBytes),
		NonNegative("Admission.Workers", a.Workers),
		NonNegative("Admission.TargetLatency", a.TargetLatency),
		NonNegative("Admission.BreakerThreshold", a.BreakerThreshold),
		NonNegative("Admission.BreakerCooldown", a.BreakerCooldown),
	)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	c.Workers = cmp.Or(c.Workers, runtime.GOMAXPROCS(0))
	c.QueueDepth = cmp.Or(c.QueueDepth, DefaultQueueDepth)
	c.MaxAttempts = cmp.Or(c.MaxAttempts, 3)
	c.RetryBaseDelay = cmp.Or(c.RetryBaseDelay, 100*time.Millisecond)
	c.CheckpointEvery = cmp.Or(c.CheckpointEvery, 1)
	return c
}

// Service is the screening service: job registry, bounded queue, worker
// pool and metrics. Create it with New, serve its Handler, stop it with
// Shutdown.
type Service struct {
	cfg     Config
	metrics *Metrics
	log     *slog.Logger
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for List
	nextID   uint64
	draining bool
	// drain is closed when draining flips, releasing held /partial
	// requests so an HTTP server shutdown never waits out their hold.
	drain chan struct{}
	// incarnation stamps the /partial cursors this process issues; a
	// cursor from another process's completion log is served from zero.
	incarnation uint64

	queue   *jobQueue
	ctrl    *admission.Controller
	workers sync.WaitGroup
	runner  Runner

	// Durability (nil journal when DataDir is unset).
	journal  *wal.Log[jobEvent]
	idem     map[string]string // idempotency key -> job ID
	recovery RecoveryStats
	crashed  bool // crashForTest: suppress terminal side effects

	// checkpointHook observes journaled checkpoint records; recovery tests
	// use it to crash at a deterministic mid-screen point.
	checkpointHook func(jobID string, newly int)

	// The prepared receptors, by (dataset, spots), and per dataset the
	// one whose molecule, topology and cell list every spot count shares;
	// see receptor. Guarded by recMu, not mu: preparing one takes
	// milliseconds.
	recMu     sync.Mutex
	receptors map[receptorKey]*core.PreparedReceptor
	molecules map[string]*core.PreparedReceptor

	// lastWarmup holds the most recent warm-up Percent factors reported
	// by a finished job's backend, for the debug snapshot.
	lastWarmup map[string][]float64

	// now is the clock; tests pin it for stable timestamps.
	now func() time.Time
}

// New builds a service and starts its worker pool. With Config.DataDir
// set, it first replays the journal found there: the job table is rebuilt,
// finished jobs keep their rankings, and interrupted jobs are re-enqueued
// to resume from their checkpoints.
func New(cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	cfg = cfg.withDefaults()
	now := time.Now
	if cfg.Clock != nil {
		now = cfg.Clock
	}
	acfg := cfg.Admission
	if acfg.Workers == 0 {
		acfg.Workers = cfg.Workers
	}
	if acfg.Now == nil {
		acfg.Now = now
	}
	s := &Service{
		cfg:     cfg,
		metrics: NewMetrics(cfg.Workers),
		log:     cfg.Logger,
		started: now(),
		jobs:    make(map[string]*Job),
		idem:    make(map[string]string),
		queue:   newJobQueue(cfg.QueueDepth),
		ctrl:    admission.NewController(acfg),
		now:     now,
		drain:   make(chan struct{}),

		incarnation: rand.Uint64() | 1, // never the zero cursor's

		receptors: make(map[receptorKey]*core.PreparedReceptor),
		molecules: make(map[string]*core.PreparedReceptor),
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	s.runner = cfg.Runner
	if s.runner == nil {
		s.runner = RunFunc(s.runScreen)
	}
	s.runner.Bind(Host{s})
	if cfg.DataDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Recovery reports what this instance replayed and re-enqueued at boot;
// all zeros without a DataDir or on a fresh one.
func (s *Service) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// StorageRetryAfter is the Retry-After of a 507: long enough not to
// hammer a full disk, short enough to notice freed space promptly.
const StorageRetryAfter = 5 * time.Second

// Submit validates and enqueues a screen, returning the queued job's
// snapshot. It fails fast with ErrQueueFull or ErrDraining.
func (s *Service) Submit(req ScreenRequest) (JobView, error) {
	v, _, err := s.SubmitIdem(req, "")
	return v, err
}

// SubmitIdem is Submit with an idempotency key: a key a job was already
// admitted under — in this process or journaled before a restart, and
// while draining too — answers that job with existing=true.
func (s *Service) SubmitIdem(req ScreenRequest, key string) (v JobView, existing bool, err error) {
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return JobView{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key != "" {
		if id, ok := s.idem[key]; ok {
			return s.viewLocked(s.jobs[id]), true, nil
		}
	}
	if s.draining {
		return JobView{}, false, ErrDraining
	}
	// Storage-degraded read-only mode: a 202 must mean the submission is
	// journaled, which a failed disk cannot promise. Each rejected submit
	// is also a (rate-limited) recovery probe, so journaling resumes
	// without a restart once space is freed.
	if !s.journal.Probe() {
		return JobView{}, false, s.shedLocked(ErrStorageFull, "storage_full", StorageRetryAfter)
	}

	// Admission pipeline: breaker gate (machine jobs only), deadline
	// feasibility, then the bounded fair queue. Rejections never allocate
	// a job ID and always carry a computed Retry-After.
	var probe bool
	if req.Machine != "" {
		allowed, p := s.ctrl.Breaker.Allow()
		if !allowed {
			return JobView{}, false, s.shedLocked(ErrBreakerOpen, "breaker_open", s.ctrl.RetryAfterBreaker())
		}
		probe = p
	}
	var deadline time.Time
	if req.DeadlineSeconds > 0 {
		now := s.now()
		deadline = now.Add(time.Duration(req.DeadlineSeconds * float64(time.Second)))
		if ok, retry := s.ctrl.CanMeetDeadline(now, deadline); !ok {
			if probe {
				s.ctrl.Breaker.ReleaseProbe()
			}
			return JobView{}, false, s.shedLocked(ErrDeadlineUnmeetable, "deadline_admission", retry)
		}
	}
	class, _ := admission.ParseClass(req.Priority) // validated above

	s.nextID++
	j := &Job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		state:     StateQueued,
		req:       req,
		submitted: s.now(),
		idemKey:   key,
		class:     class,
		deadline:  deadline,
		probe:     probe,
		rec:       &trace.Recorder{},
	}
	j.rec.SetEpoch(j.submitted)
	if err := tryPush(s.queue, j); err != nil {
		s.nextID-- // the ID was never exposed
		if probe {
			s.ctrl.Breaker.ReleaseProbe()
		}
		s.metrics.rejected.Inc()
		return JobView{}, false, s.shedLocked(err, "queue_full", s.ctrl.RetryAfterFull())
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if key != "" {
		s.idem[key] = j.id
	}
	s.metrics.submitted.Inc()
	if !s.journal.Append(jobEvent{
		Type: evSubmitted, Job: j.id, Time: j.submitted,
		Request: &j.req, IdemKey: key,
	}) {
		// The ack oracle: a 202 promises the submission survives a crash,
		// and this one's record never reached the journal. Shed the job
		// (the queued entry is skipped when popped) instead of acking.
		if key != "" {
			delete(s.idem, key)
		}
		j.idemKey = ""
		s.finishLocked(j, StateShed, nil, "shed: journal unavailable at admission")
		return JobView{}, false, s.shedLocked(ErrStorageFull, "storage_full", StorageRetryAfter)
	}
	s.log.Info("job submitted", "job", j.id,
		"dataset", req.Dataset, "library", req.Library,
		"metaheuristic", req.Metaheuristic, "machine", req.Machine)
	return s.viewLocked(j), false, nil
}

// shedLocked counts and logs one overload rejection and wraps it as a
// ShedError carrying the Retry-After and queue state. Caller holds s.mu.
func (s *Service) shedLocked(err error, reason string, retryAfter time.Duration) error {
	s.metrics.shed.With(reason).Inc()
	depth := s.queue.Len()
	s.log.Warn("request shed", "reason", reason, "err", err,
		"retry_after_seconds", retryAfter.Seconds(), "queue_depth", depth)
	return &ShedError{
		Err:        err,
		Reason:     reason,
		RetryAfter: retryAfter,
		QueueDepth: depth,
		Limit:      s.cfg.QueueDepth,
	}
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return s.viewLocked(j), nil
}

// Trace returns a job's span recorder for timeline export. A job restored
// from the journal lost its recorder with the previous process; a fresh
// one is built from its lifecycle timestamps so the trace endpoint still
// serves a (sparse) timeline.
func (s *Service) Trace(id string) (*trace.Recorder, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	restored := j.rec == nil
	rec := j.recorder()
	if restored && j.state.Terminal() && !j.finished.IsZero() {
		s.recordJobSpans(j)
	}
	return rec, nil
}

// List returns every job in submission order.
func (s *Service) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(s.jobs[id]))
	}
	return out
}

// Cancel aborts a job: a queued one at once, a running one once its
// runner notices the cancelled context. Like a submit, a cancel is
// acknowledged only once journaled, so replay never resurrects the job;
// one the journal cannot take is refused with ErrStorageFull and the job
// carries on. A terminal job returns ErrTerminal.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	if j.state.Terminal() {
		return s.viewLocked(j), ErrTerminal
	}
	if !j.cancelRequested {
		// Set before the append: a compaction it triggers must keep it.
		j.cancelRequested = true
		if !s.journal.Probe() || !s.journal.Append(jobEvent{Type: evCancel, Job: j.id, Time: s.now()}) {
			j.cancelRequested = false
			return s.viewLocked(j), s.shedLocked(ErrStorageFull, "storage_full", StorageRetryAfter)
		}
	}
	if j.state == StateQueued {
		s.finishLocked(j, StateCancelled, nil, "cancelled while queued")
	} else {
		j.cancel(nil)
	}
	return s.viewLocked(j), nil
}

// viewLocked snapshots a job with its runner's detail. Caller holds s.mu.
func (s *Service) viewLocked(j *Job) JobView {
	v := j.view()
	s.runner.Detail(&v)
	return v
}

// finishLocked moves a job to a terminal state, records it in the metrics
// and journals the full final snapshot, which supersedes the job's
// checkpoint records. Caller holds s.mu.
func (s *Service) finishLocked(j *Job, state JobState, res *core.ScreenResult, errMsg string) {
	j.state = state
	j.finished = s.now()
	j.err = errMsg
	j.result = res
	j.cancel = nil
	j.wakeWaiters()
	// Resolve the breaker's view of this job exactly once: a finished
	// machine job is the health signal. Success closes/keeps-closed, an
	// all-devices-lost failure counts toward tripping, and anything else
	// (cancel, shed, unrelated failure) just returns a held probe slot.
	if j.req.Machine != "" {
		switch {
		case state == StateDone:
			s.ctrl.Breaker.Success()
		case j.deviceLost:
			s.ctrl.Breaker.Failure()
		case j.probe:
			s.ctrl.Breaker.ReleaseProbe()
		}
	}
	m := s.metrics
	m.finished.With(string(state)).Inc()
	m.latency.Observe(j.finished.Sub(j.submitted).Seconds())
	if !j.started.IsZero() {
		m.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
		m.runTime.Observe(j.finished.Sub(j.started).Seconds())
	}
	if res != nil {
		m.evaluations.Add(res.Evaluations)
		m.simulatedSeconds.Add(res.SimulatedSeconds)
		m.deviceFaults.Add(res.DeviceFaults)
		m.resplits.Add(res.Resplits)
		s.observeGenerations(res)
		if res.WarmupFactors != nil {
			s.lastWarmup = res.WarmupFactors
		}
	}
	s.recordJobSpans(j)
	if s.journal != nil {
		v := s.viewLocked(j)
		s.journal.Append(jobEvent{Type: evTerminal, Job: j.id, Time: j.finished, View: &v})
	}
	s.log.Info("job finished", "job", j.id, "state", string(state),
		"latency_seconds", j.finished.Sub(j.submitted).Seconds(), "err", errMsg)
}

// observeGenerations feeds every ligand run's per-generation simulated
// durations into the generation histogram.
func (s *Service) observeGenerations(res *core.ScreenResult) {
	for _, e := range res.Ranking {
		if e.Result == nil {
			continue
		}
		prev := 0.0
		for _, gp := range e.Result.History {
			s.metrics.genSim.Observe(gp.SimSeconds - prev)
			prev = gp.SimSeconds
		}
	}
}

// recordJobSpans closes out a terminal job's wall-clock spans: the queued
// interval and the whole job interval, both relative to submission (the
// recorder's epoch). Caller holds s.mu.
func (s *Service) recordJobSpans(j *Job) {
	if j.rec == nil {
		return
	}
	if !j.started.IsZero() {
		j.rec.AddSpan(trace.Span{
			Track: "job", Name: "queued", Cat: trace.CatJob,
			Start: 0, End: j.started.Sub(j.submitted).Seconds(),
		})
	}
	j.rec.AddSpan(trace.Span{
		Track: "job", Name: "job " + j.id, Cat: trace.CatJob,
		Start: 0, End: j.finished.Sub(j.submitted).Seconds(),
		Args: map[string]string{"job": j.id, "state": string(j.state)},
	})
}

// Drain starts the drain without waiting for it: intake stops, queued
// jobs are cancelled and held /partial requests are answered, so closing
// the HTTP listener (RegisterOnShutdown) does not wait out a held poll.
func (s *Service) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.startDrainLocked() {
		return
	}
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateQueued {
			s.finishLocked(j, StateCancelled, nil, "cancelled at shutdown")
		}
	}
	s.queue.Close()
	// Wake workers blocked in the concurrency limiter; their remaining
	// queued jobs were just cancelled above.
	s.ctrl.Close()
}

// startDrainLocked flips the service to draining and releases the held
// /partial requests; false means it already was. Caller holds s.mu.
func (s *Service) startDrainLocked() bool {
	if s.draining {
		return false
	}
	s.draining = true
	close(s.drain)
	return true
}

// Shutdown drains the service (Drain) and lets running jobs finish. When
// ctx expires first they are interrupted (ErrInterrupted) — with a data
// dir to resume on the next boot — and Shutdown returns ctx's error once
// the workers wound down. Idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.Drain()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, id := range s.order {
			if j := s.jobs[id]; j.state == StateRunning {
				j.cancel(ErrInterrupted)
			}
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	s.mu.Lock()
	s.journal.Close()
	s.journal = nil
	s.mu.Unlock()
	return err
}

// Stats is a point-in-time operational snapshot (also the source of the
// /metrics gauges).
type Stats struct {
	QueueDepth int  `json:"queue_depth"`
	Running    int  `json:"running"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining"`
	// QueueByClass splits QueueDepth by priority class.
	QueueByClass map[string]int `json:"queue_by_class,omitempty"`
	// Limit and InFlight are the adaptive concurrency limiter's current
	// window and occupancy; Breaker is the device-health circuit state
	// ("closed", "half-open" or "open").
	Limit    int    `json:"limit"`
	InFlight int    `json:"in_flight"`
	Breaker  string `json:"breaker"`
	// StorageDegraded reports read-only mode after a journal I/O failure;
	// StorageReason is "disk_full" or "io_error" while degraded.
	StorageDegraded bool   `json:"storage_degraded,omitempty"`
	StorageReason   string `json:"storage_reason,omitempty"`
}

// Stats snapshots the live gauges.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, storage := s.ctrl.Snapshot(), s.journal.Status()
	st := Stats{
		QueueDepth:      s.queue.Len(),
		Workers:         s.cfg.Workers,
		Draining:        s.draining,
		QueueByClass:    make(map[string]int),
		Limit:           snap.Limit,
		InFlight:        snap.InFlight,
		Breaker:         snap.Breaker,
		StorageDegraded: storage.Degraded,
		StorageReason:   storage.Reason,
	}
	for _, c := range admission.Classes() {
		st.QueueByClass[c.String()] = s.queue.LenClass(c)
	}
	for _, j := range s.jobs {
		if j.state == StateRunning {
			st.Running++
		}
	}
	return st
}
