package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// The worker pool: N goroutines drain the bounded queue, each running one
// job at a time through the runner with a per-job context, until the
// queue closes. A panicking runner is recovered, transient failures retry
// with jittered exponential backoff up to Config.MaxAttempts, and
// permanent ones fail the job at once.

// maxRetryDelay caps the exponential backoff between attempts.
const maxRetryDelay = 5 * time.Second

// worker is one pool goroutine's life: pop fairly, wait for a slot in
// the adaptive concurrency window (surplus workers park in Acquire while
// the AIMD limiter is below the pool size), run.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		if !s.ctrl.Limiter.Acquire() {
			// Limiter closed: shutdown already cancelled every queued job.
			return
		}
		s.runJob(j)
		s.ctrl.Limiter.Release()
	}
}

// runJob executes one claimed job through its full lifecycle, including
// transient-failure retries.
func (s *Service) runJob(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancelled (or shut down) while waiting in the queue.
		s.mu.Unlock()
		return
	}
	if !j.deadline.IsZero() && s.ctrl.ShouldCull(s.now(), j.deadline) {
		// The deadline can no longer be met even if the job starts right
		// now: shed it instead of burning a worker on a doomed run.
		s.metrics.shed.With("deadline_dequeue").Inc()
		s.finishLocked(j, StateShed, nil, "shed: deadline unmeetable at dequeue")
		s.mu.Unlock()
		return
	}
	// The base context lives for all attempts; Cancel aborts the current
	// attempt and any backoff in between, a drain with ErrInterrupted.
	base, cancel := context.WithCancelCause(context.Background())
	j.state = StateRunning
	j.started = s.now()
	j.cancel = cancel
	s.ctrl.ObserveQueueWait(j.started.Sub(j.submitted))
	s.metrics.classQueue.With(j.class.String()).Observe(j.started.Sub(j.submitted).Seconds())
	// A job recovered from the journal resumes its attempt numbering where
	// the dead process left off, with a fresh retry budget for this boot.
	first := j.attempts + 1
	id, req := j.id, j.req
	// Graceful degradation: under queue pressure, shrink this job's search
	// effort instead of failing outright. The reduced scale is recorded on
	// the job so results are never silently rescaled.
	fill := float64(s.queue.Len()) / float64(s.cfg.QueueDepth)
	if f := s.ctrl.EffortFactor(fill); f < 1 {
		j.degraded = true
		j.effortFactor = f
		j.effectiveScale = req.Scale * f
		req.Scale = j.effectiveScale
		s.metrics.degraded.Inc()
		s.log.Info("job degraded under pressure", "job", id,
			"fill", fill, "effort_factor", f, "effective_scale", req.Scale)
	}
	jobDeadline := j.deadline
	rec, submitted, startedAt := j.recorder(), j.submitted, j.started
	s.journal.Append(jobEvent{Type: evStarted, Job: id, Time: j.started, Attempt: first})
	s.mu.Unlock()
	defer cancel(nil)

	logger := s.log.With("job", id)
	logger.Info("job started", "attempt", first,
		"queue_seconds", startedAt.Sub(submitted).Seconds())
	// Everything the screen does below runs with the job's recorder and a
	// job-correlated logger in its context; the engine picks both up.
	base = trace.NewContext(obs.NewContext(base, logger), rec)

	s.metrics.busy.Add(1)
	defer s.metrics.busy.Add(-1)

	var (
		res         *core.ScreenResult
		err         error
		interrupted bool // by a drain: not the job's end, so not journaled
	)
	for attempt := first; ; attempt++ {
		attemptCtx := base
		acancel := func() {}
		if req.TimeoutSeconds > 0 {
			attemptCtx, acancel = context.WithTimeout(base,
				time.Duration(req.TimeoutSeconds*float64(time.Second)))
		}
		dcancel := func() {}
		if !jobDeadline.IsZero() {
			attemptCtx, dcancel = context.WithDeadline(attemptCtx, jobDeadline)
		}
		attemptStart := s.now()
		res, err = s.safeRun(attemptCtx, id, req)
		interrupted = errors.Is(err, ErrInterrupted) || errors.Is(context.Cause(base), ErrInterrupted)
		dcancel()
		acancel()
		s.ctrl.ObserveAttempt(s.now().Sub(attemptStart))
		rec.AddSpan(trace.Span{
			Track: "screen",
			Name:  "attempt " + strconv.Itoa(attempt),
			Cat:   trace.CatScreen,
			Start: attemptStart.Sub(submitted).Seconds(),
			End:   s.now().Sub(submitted).Seconds(),
			Args:  map[string]string{"job": id, "attempt": strconv.Itoa(attempt)},
		})

		s.mu.Lock()
		j.attempts = attempt
		if err != nil && !interrupted {
			j.lastErr = err.Error()
			s.journal.Append(jobEvent{Type: evAttempt, Job: id, Attempt: attempt, Error: j.lastErr})
		}
		s.mu.Unlock()

		if err == nil || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			!transientErr(err) || attempt-first+1 >= s.cfg.MaxAttempts {
			break
		}
		delay := rng.Backoff(s.cfg.RetryBaseDelay, maxRetryDelay, id, attempt)
		if !jobDeadline.IsZero() && s.now().Add(delay).After(jobDeadline) {
			// The backoff would outlive the job's deadline; failing now is
			// strictly better than sleeping only to fail on wake.
			s.metrics.shed.With("deadline_backoff").Inc()
			err = fmt.Errorf("service: job deadline would expire during retry backoff (%v sleep, %v remaining): %w",
				delay.Round(time.Millisecond), jobDeadline.Sub(s.now()).Round(time.Millisecond), err)
			break
		}
		s.metrics.jobRetries.Inc()
		logger.Warn("attempt failed, retrying", "attempt", attempt, "err", err,
			"backoff", delay)
		if !rng.Sleep(base, delay) {
			err, interrupted = context.Canceled, errors.Is(context.Cause(base), ErrInterrupted)
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		// Simulated process death: no terminal transition and no journal
		// record, exactly as if the worker died mid-run. The next boot over
		// the data dir re-enqueues the job.
		return
	}
	if interrupted {
		if s.journal != nil {
			// A drain is not the job's end: like a crash, it leaves the job
			// to resume on the next boot over the data dir.
			logger.Info("job interrupted by drain, resumes on the next boot")
			return
		}
		s.finishLocked(j, StateCancelled, nil, "cancelled at shutdown")
		return
	}
	// The breaker's failure signal: this job's final attempt lost every
	// device of its simulated platform.
	j.deviceLost = err != nil && errors.Is(err, sched.ErrAllDevicesLost)
	switch {
	case err == nil:
		s.ctrl.ObserveRun(s.now().Sub(j.started))
		s.finishLocked(j, StateDone, res, "")
	case errors.Is(err, context.Canceled):
		s.finishLocked(j, StateCancelled, nil, "cancelled while running")
	case errors.Is(err, context.DeadlineExceeded):
		msg := fmt.Sprintf("deadline exceeded after %gs", req.TimeoutSeconds)
		if !jobDeadline.IsZero() && !s.now().Before(jobDeadline) {
			msg = "job deadline exceeded while running"
		}
		s.finishLocked(j, StateFailed, nil, msg)
	default:
		s.finishLocked(j, StateFailed, nil, err.Error())
	}
}

// safeRun executes one attempt, converting a runner panic into an error
// so a bad job cannot take the worker goroutine down with it.
func (s *Service) safeRun(ctx context.Context, id string, req ScreenRequest) (res *core.ScreenResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerPanics.Inc()
			res = nil
			err = fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	return s.runner.Run(ctx, id, req)
}

// transientErr classifies a failure as retryable: a transient simulated
// device error, or any error advertising Transient() == true.
func transientErr(err error) bool {
	if cudasim.IsTransient(err) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// runScreen is the local runner: the same core screen a library user
// would run, so equal parameters and seed give identical rankings. A
// request naming Ligands screens just those, in library order. A durable
// job resumes from its checkpoint records and journals one every
// CheckpointEvery ligands; seed lanes are keyed by ligand name, so the
// resumed ranking is byte-identical. Every completed ligand lands in the
// job's partial set, which /partial streams to a coordinator.
func (s *Service) runScreen(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
	rec, err := s.receptor(req.Dataset, req.Spots)
	if err != nil {
		return nil, err
	}
	backf, err := req.backendFactory()
	if err != nil {
		return nil, err
	}
	algf := func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewPaper(req.Metaheuristic, req.Scale)
	}
	lib := LibraryOf(req)

	s.mu.Lock()
	// A durable job resumes from its journaled checkpoint records,
	// re-docking only the ligands after the last one.
	cp := &core.Checkpoint{}
	if j, ok := s.jobs[id]; ok && s.journal != nil {
		cp = &core.Checkpoint{Seed: j.req.Seed, Ligands: make(map[string]core.LigandRecord, j.cpLigands)}
		for _, rec := range j.records(0, j.cpLigands) {
			cp.Ligands[rec.Name] = rec
		}
	}
	s.mu.Unlock()
	onLigand := func(_ *core.Checkpoint, lr core.LigandRecord, newly int) error {
		s.mu.Lock()
		j, ok := s.jobs[id]
		journaled := ok && s.checkpointLocked(j, newly%s.cfg.CheckpointEvery == 0, lr)
		hook := s.checkpointHook
		s.mu.Unlock()
		if journaled && hook != nil {
			hook(id, newly)
		}
		return nil
	}
	return core.ScreenReceptorCtx(ctx, rec, lib, algf, backf, req.Seed,
		s.cfg.ScreenWorkers, cp, onLigand)
}

// receptorKey names one prepared receptor of the service's cache.
type receptorKey struct {
	dataset string
	spots   int
}

// receptor returns the prepared receptor for a dataset and spot cap,
// preparing it on first use. Molecule, topology and cell list are built
// once per dataset and shared by every spot count, so the cache needs no
// eviction.
func (s *Service) receptor(dataset string, spots int) (*core.PreparedReceptor, error) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	key := receptorKey{dataset, spots}
	if r, ok := s.receptors[key]; ok {
		return r, nil
	}
	opts := surface.Options{MaxSpots: spots}
	var r *core.PreparedReceptor
	if base, ok := s.molecules[dataset]; ok {
		var err error
		if r, err = base.WithSpots(opts); err != nil {
			return nil, err
		}
	} else {
		ds, err := core.DatasetByName(dataset)
		if err != nil {
			return nil, err
		}
		if r, err = core.PrepareReceptor(ds.Receptor, opts); err != nil {
			return nil, err
		}
		s.molecules[dataset] = r
	}
	s.receptors[key] = r
	return r, nil
}

// LibraryOf materializes a request's ligands, in library order so sums
// stay deterministic: the whole synthetic library, or only its named
// ligands, which spares a chunk building the rest.
func LibraryOf(req ScreenRequest) []*molecule.Molecule {
	if len(req.Ligands) == 0 {
		return core.SyntheticLibrary(req.Library)
	}
	want := make(map[string]bool, len(req.Ligands))
	for _, n := range req.Ligands {
		want[n] = true
	}
	var out []*molecule.Molecule
	for i := 0; i < req.Library; i++ {
		if want[core.SyntheticName(i)] {
			out = append(out, core.SyntheticLigand(i))
		}
	}
	return out
}
