package service

// The node's role table over the shared event log (wal.Log, which owns
// append, compaction, replay and degraded mode): when Config.DataDir is
// set, every job lifecycle transition is journaled before the response
// leaves the service, and every CheckpointEvery completed ligands a
// running screen journals a checkpoint record carrying the ligands it
// completed since its previous one. On the next boot over the same data
// dir the journal is replayed: the job table is rebuilt, terminal jobs
// keep their results, and jobs that were queued or running at the crash
// are re-enqueued — a re-run resumes from its checkpoint records,
// re-docking only the ligands after the last one, with a final ranking
// byte-identical to an uninterrupted run.
//
// Layout under DataDir:
//
//	journal/seg-%08d.wal   framed JSONL job events (see jobEvent)
//
// A data dir written by an older binary may also hold checkpoints/: those
// per-job snapshot files are ignored, so its interrupted jobs re-dock from
// scratch (with unchanged rankings).
//
// Event records are last-write-wins per job, which is what makes journal
// compaction (full-snapshot records replacing history) crash-safe: a
// replay of old events followed by a snapshot converges on the snapshot. A
// snapshot or terminal view drops the job's checkpoint records, so
// compaction writes a non-terminal job's records again after its snapshot.

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/wal"
)

// Event types. Unknown types are skipped on replay so newer journals
// degrade gracefully under older binaries.
const (
	evSubmitted  = "submitted"  // job admitted: request + idempotency key
	evStarted    = "started"    // a worker claimed the job
	evAttempt    = "attempt"    // one execution attempt finished (with error, if any)
	evCheckpoint = "checkpoint" // ligands completed since the job's previous checkpoint record
	evCancel     = "cancel"     // a cancel was requested for a running job
	evTerminal   = "terminal"   // the job reached a terminal state (full snapshot)
	evSnapshot   = "snapshot"   // compaction record: full job snapshot
)

// jobEvent is one journal record. Which fields are set depends on Type;
// terminal and snapshot events carry the whole JobView so replay needs no
// other source of truth.
type jobEvent struct {
	Type    string              `json:"type"`
	Job     string              `json:"job,omitempty"`
	Time    time.Time           `json:"time,omitempty"`
	Request *ScreenRequest      `json:"request,omitempty"`
	IdemKey string              `json:"idem_key,omitempty"`
	Attempt int                 `json:"attempt,omitempty"`
	Error   string              `json:"error,omitempty"`
	Records []core.LigandRecord `json:"records,omitempty"`
	View    *JobView            `json:"view,omitempty"`
}

// RecoveryStats reports what a boot over an existing data dir recovered.
type RecoveryStats struct {
	// ReplayedRecords is the number of journal records replayed.
	ReplayedRecords int `json:"replayed_records"`
	// RecoveredJobs is the number of non-terminal jobs re-enqueued.
	RecoveredJobs int `json:"recovered_jobs"`
	// TruncatedBytes counts journal bytes dropped as a torn/corrupt tail.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// openJournal opens the journal, replays it into the job table, and
// re-enqueues every job that was queued or running when the previous
// process died. Called from New before the workers start, so no lock is
// needed.
func (s *Service) openJournal() error {
	m := s.metrics
	l, info, err := wal.OpenLog(filepath.Join(s.cfg.DataDir, "journal"), wal.LogConfig[jobEvent]{
		Options: wal.Options{
			Policy:       s.cfg.Fsync,
			SyncInterval: s.cfg.FsyncInterval,
			Logf:         func(format string, args ...any) { s.log.Warn(fmt.Sprintf(format, args...)) },
			FS:           s.cfg.FS,
			OnIOError:    func(op string, err error) { m.walIOErrors.With(op).Inc() },
		},
		CompactBytes: s.cfg.CompactBytes,
		Apply:        s.applyEvent,
		Snapshot:     s.snapshot,
		Now:          s.now,
		OnAppend:     func(n int) { m.journalRecords.Inc(); m.journalBytes.Add(int64(n)) },
		OnSkip:       m.journalSkipped.Inc,
		OnError:      m.journalErrors.Inc,
		OnCompact:    m.journalCompactions.Inc,
		OnRecover:    m.storageRecoveries.Inc,
	})
	if err != nil {
		return err
	}
	s.recovery = RecoveryStats{ReplayedRecords: info.Records, TruncatedBytes: info.TruncatedBytes}

	// Re-enqueue interrupted jobs in submission order, honouring cancels
	// journaled before the crash. The queue must admit all of them
	// regardless of the configured bound, so size it up front (workers
	// have not started; pushes cannot block).
	var pending, cancelled []*Job
	for _, id := range s.order {
		switch j := s.jobs[id]; {
		case j.state.Terminal():
		case j.cancelRequested:
			cancelled = append(cancelled, j)
		default:
			pending = append(pending, j)
		}
	}
	if len(pending) > s.cfg.QueueDepth {
		s.queue = newJobQueue(len(pending))
	}
	for _, job := range pending {
		job.state = StateQueued
		job.started = time.Time{}
		job.cancel = nil
		// The admission state is rebuilt from the request: the priority
		// class survives replay and the deadline stays anchored to the
		// original submission time.
		job.class, _ = admission.ParseClass(job.req.Priority)
		job.deadline = time.Time{}
		if job.req.DeadlineSeconds > 0 && !job.submitted.IsZero() {
			job.deadline = job.submitted.Add(
				time.Duration(job.req.DeadlineSeconds * float64(time.Second)))
		}
		if err := s.queue.tryPush(job); err != nil {
			l.Close()
			return fmt.Errorf("service: re-enqueue %s: %w", job.id, err)
		}
		s.recovery.RecoveredJobs++
	}
	m.replayedRecords.Add(int64(s.recovery.ReplayedRecords))
	m.recoveredJobs.Add(int64(s.recovery.RecoveredJobs))
	m.truncatedBytes.Add(s.recovery.TruncatedBytes)
	s.journal = l
	// Cancelled-but-not-terminal jobs finish now, with the journal open so
	// the terminal record survives the next restart too.
	for _, job := range cancelled {
		s.finishLocked(job, StateCancelled, nil, "cancelled before restart")
	}
	return nil
}

// applyEvent folds one journal record into the in-memory job table.
// Events are last-write-wins per job; unknown types are ignored.
func (s *Service) applyEvent(ev jobEvent) {
	switch ev.Type {
	case evSubmitted:
		j := s.jobFor(ev.Job)
		if ev.Request != nil {
			j.req = *ev.Request
		}
		j.state = StateQueued
		j.submitted = ev.Time
		j.idemKey = ev.IdemKey
		if ev.IdemKey != "" {
			s.idem[ev.IdemKey] = j.id
		}
	case evStarted:
		j := s.jobFor(ev.Job)
		j.state = StateRunning
		j.started = ev.Time
		j.attempts = ev.Attempt
	case evAttempt:
		j := s.jobFor(ev.Job)
		j.attempts = ev.Attempt
		j.lastErr = ev.Error
	case evCheckpoint:
		// A record from an older binary carries no ligands: its job
		// re-docks from scratch.
		j := s.jobFor(ev.Job)
		j.addPartial(ev.Records...)
		j.cpLigands = len(j.log)
	case evCancel:
		// The cancel may not have produced a terminal record before the
		// crash; remember the intent so recovery finishes the job as
		// cancelled instead of resurrecting it.
		s.jobFor(ev.Job).cancelRequested = true
	case evTerminal, evSnapshot:
		if ev.View != nil {
			s.applyView(ev.View)
		}
	}
}

// jobFor returns the job for a replayed event, creating a placeholder if
// its submitted record was lost with a truncated tail.
func (s *Service) jobFor(id string) *Job {
	if j, ok := s.jobs[id]; ok {
		return j
	}
	j := &Job{id: id, state: StateQueued}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.bumpNextID(id)
	return j
}

// applyView overwrites a job from a full snapshot (terminal or compaction
// record). The view supersedes the job's checkpoint records: a terminal
// job serves its journaled ranking, and compaction writes a live job's
// records again after its snapshot.
func (s *Service) applyView(v *JobView) {
	j := s.jobFor(v.ID)
	j.state = v.State
	j.req = v.Request
	j.submitted = v.SubmittedAt
	j.started = time.Time{}
	if v.StartedAt != nil {
		j.started = *v.StartedAt
	}
	j.finished = time.Time{}
	if v.FinishedAt != nil {
		j.finished = *v.FinishedAt
	}
	j.err = v.Error
	j.attempts = v.Attempts
	j.lastErr = v.LastError
	j.partial, j.log, j.cpLigands = nil, nil, 0
	if v.State.Terminal() {
		j.cpLigands = v.CheckpointLigands // reported only; the job never runs again
	}
	j.idemKey = v.IdempotencyKey
	j.degraded = v.Degraded
	j.effortFactor = v.EffortFactor
	j.effectiveScale = v.EffectiveScale
	j.deadline = time.Time{}
	if v.DeadlineAt != nil {
		j.deadline = *v.DeadlineAt
	}
	if v.IdempotencyKey != "" {
		s.idem[v.IdempotencyKey] = j.id
	}
	j.result = nil
	j.restored = v.Result
}

// bumpNextID keeps ID allocation monotonic across restarts.
func (s *Service) bumpNextID(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// snapshot is the journal's compaction record set: one snapshot record
// per job, followed for a job that is not terminal by one checkpoint
// record holding its journaled ligands. It runs inside a journal append
// or probe, under s.mu.
func (s *Service) snapshot() []jobEvent {
	evs := make([]jobEvent, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		v := j.view()
		evs = append(evs, jobEvent{Type: evSnapshot, Job: id, View: &v})
		if !j.state.Terminal() && j.cpLigands > 0 {
			evs = append(evs, jobEvent{Type: evCheckpoint, Job: id, Records: j.records(0, j.cpLigands)})
		}
	}
	return evs
}

// checkpointLigand folds one completed ligand into the job's partial set
// and, when asked to, journals the ligands completed since the job's
// previous checkpoint record as the next one, reporting whether it did.
// A failed append does not abort the screen: the journal's failure policy
// applies, the job keeps its previous records, and the next checkpoint
// record carries the missed ligands too. Storage-degraded mode skips the
// record.
func (s *Service) checkpointLigand(id string, rec core.LigandRecord, checkpoint bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	j.addPartial(rec)
	if !checkpoint || s.journal == nil {
		return false
	}
	degraded, prev := s.journal.Status().Degraded, j.cpLigands
	ev := jobEvent{Type: evCheckpoint, Job: id, Records: j.records(prev, len(j.log))}
	// Advance before appending: a compaction this append triggers must
	// rewrite the new records too.
	j.cpLigands = len(j.log)
	if !s.journal.Append(ev) {
		j.cpLigands = prev
		if !degraded {
			s.metrics.checkpointErrors.Inc()
			s.log.Warn("checkpoint record append failed, screen continues", "job", id)
		}
		return false
	}
	s.metrics.checkpointsWritten.Inc()
	return true
}
