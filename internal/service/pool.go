package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// The worker pool: N goroutines drain the bounded queue, each running one
// screen at a time through the core engine with a per-job context. The
// pool exits when the queue closes (shutdown).
//
// Failure policy: a panicking runner is recovered (the worker survives to
// serve the next job), transient failures retry with exponential backoff
// and deterministic jitter up to Config.MaxAttempts, and permanent
// failures fail the job immediately with the typed cause in its record.

// maxRetryDelay caps the exponential backoff between attempts.
const maxRetryDelay = 5 * time.Second

// worker is one pool goroutine's life: pop fairly, wait for a slot in
// the adaptive concurrency window, run. When the AIMD limiter has shrunk
// the window below the worker count, the surplus workers park in Acquire
// — the backend sees at most Limit concurrent jobs even though the pool
// has more goroutines.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
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
	// attempt and any backoff in between.
	base, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.started = s.now()
	j.cancel = cancel
	s.ctrl.ObserveQueueWait(j.started.Sub(j.submitted))
	s.metrics.classQueue.With(j.class.String()).Observe(j.started.Sub(j.submitted).Seconds())
	// A job recovered from the journal resumes its attempt numbering where
	// the dead process left off, with a fresh retry budget for this boot.
	first := j.attempts + 1
	id, req, run := j.id, j.req, s.run
	// Graceful degradation: under queue pressure, shrink this job's search
	// effort instead of failing outright. The reduced scale is recorded on
	// the job so results are never silently rescaled.
	fill := float64(s.queue.depth()) / float64(s.cfg.QueueDepth)
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
	if j.rec == nil {
		// Recovered job: its recorder died with the previous process.
		j.rec = &trace.Recorder{}
		if !j.submitted.IsZero() {
			j.rec.SetEpoch(j.submitted)
		}
	}
	rec, submitted, startedAt := j.rec, j.submitted, j.started
	s.journal.Append(jobEvent{Type: evStarted, Job: id, Time: j.started, Attempt: first})
	s.mu.Unlock()
	defer cancel()

	logger := s.log.With("job", id)
	logger.Info("job started", "attempt", first,
		"queue_seconds", startedAt.Sub(submitted).Seconds())
	// Everything the screen does below runs with the job's recorder and a
	// job-correlated logger in its context; the engine picks both up.
	base = trace.NewContext(obs.NewContext(base, logger), rec)

	s.metrics.busy.Add(1)
	defer s.metrics.busy.Add(-1)

	var (
		res *core.ScreenResult
		err error
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
		res, err = s.safeRun(run, attemptCtx, id, req)
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
		if err != nil {
			j.lastErr = err.Error()
			s.journal.Append(jobEvent{Type: evAttempt, Job: id, Attempt: attempt, Error: j.lastErr})
		}
		s.mu.Unlock()

		if err == nil || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			!transientErr(err) || attempt-first+1 >= s.cfg.MaxAttempts {
			break
		}
		delay := s.retryDelay(id, attempt)
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
		if !s.sleepRetry(base, delay) {
			err = context.Canceled
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
func (s *Service) safeRun(run runnerFunc, ctx context.Context, id string, req ScreenRequest) (res *core.ScreenResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerPanics.Inc()
			res = nil
			err = fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	return run(ctx, id, req)
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

// retryDelay computes the backoff before retry number `attempt`: the
// base delay doubles per retry with a deterministic jitter derived from
// the job ID (so test runs are reproducible without a global RNG). It is
// computed separately from the sleep so the caller can compare it against
// the job's deadline before committing to the wait.
func (s *Service) retryDelay(jobID string, attempt int) time.Duration {
	delay := s.cfg.RetryBaseDelay << (attempt - 1)
	if delay > maxRetryDelay || delay <= 0 {
		delay = maxRetryDelay
	}
	// Jitter factor in [0.5, 1.5), hashed from the job and attempt.
	return rng.Jitter(delay, 0.5, jobID, uint64(attempt))
}

// sleepRetry waits out one retry backoff; false means the job was
// cancelled during the wait.
func (s *Service) sleepRetry(ctx context.Context, delay time.Duration) bool {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runScreen is the production runner: it materializes the request into
// the same core screen a library user would run, so a service job and a
// library screen with equal parameters and seed return identical
// rankings. A request naming specific Ligands screens just that shard of
// the library, in library order, against the process's prepared receptor.
// With durability enabled, the screen resumes from the job's checkpoint
// records and journals a new one every CheckpointEvery completed ligands —
// since seed lanes are keyed by ligand name, the resumed ranking is
// byte-identical to an uninterrupted run. Every completed ligand also
// lands in the job's partial set, which the /partial endpoint streams to
// the distributed coordinator.
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
	lib := libraryOf(req)

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
		if s.checkpointLigand(id, lr, newly%s.cfg.CheckpointEvery == 0) {
			s.mu.Lock()
			hook := s.checkpointHook
			s.mu.Unlock()
			if hook != nil {
				hook(id, newly)
			}
		}
		return nil
	}
	return core.ScreenReceptorCtx(ctx, rec, lib, forcefield.Options{}, algf, backf, req.Seed,
		s.cfg.ScreenWorkers, cp, onLigand)
}

// receptorKey names one prepared receptor of the service's cache.
type receptorKey struct {
	dataset string
	spots   int
}

// receptor returns the prepared receptor for a dataset and spot cap,
// preparing it on first use. The molecule, topology and cell list are
// built once per dataset and shared by every spot count, so the cache
// holds at most two receptors plus one small spot list per validated
// (dataset, spots) pair and needs no eviction.
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

// libraryOf materializes a request's ligands: the whole synthetic
// library, or only its named ligands, in library order so aggregate sums
// stay deterministic. A distributed chunk names a few ligands of a large
// library, and building the rest would cost it about one ligand's docking
// time. Validation already guaranteed every name exists.
func libraryOf(req ScreenRequest) []*molecule.Molecule {
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
