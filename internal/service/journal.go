package service

// The job table over the shared event log (wal.Log owns append,
// compaction, replay and degraded mode). With Config.DataDir set, every
// lifecycle transition is journaled before the response leaves, and every
// CheckpointEvery completed ligands a checkpoint record carries the ones
// completed since the last. A boot over the same dir replays the journal
// (<DataDir>/journal/seg-%08d.wal) into the job table: terminal jobs keep
// their results, interrupted ones are re-enqueued and re-dock only the
// ligands after their last checkpoint record, with an unchanged ranking.
// An older binary's checkpoints/ directory is ignored: its jobs re-dock
// from scratch.
//
// The runner's records (a coordinator's membership and chunk assignments)
// share the log: replay hands every record to the runner too, and a
// compaction appends the runner's snapshot. A coordinator journal from
// before the shared job model replays as well: its "job", "entries",
// "cancel" and "terminal" records fold into the job table.
//
// Records are last-write-wins per job, which makes compaction crash-safe:
// old events followed by a snapshot converge on the snapshot. A snapshot
// or terminal view drops the job's checkpoint records, so compaction
// writes a live job's records again after its snapshot.

import (
	"cmp"
	"encoding/json"
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
	// Entries are a coordinator's merged ligands, in an "entries" record.
	Entries []PartialEntry `json:"entries,omitempty"`

	// raw is the record as journaled: what a runner's record is written
	// as, and what replay hands the runner.
	raw json.RawMessage
}

func (ev jobEvent) MarshalJSON() ([]byte, error) {
	if ev.raw != nil {
		return ev.raw, nil
	}
	type plain jobEvent
	return json.Marshal(plain(ev))
}

func (ev *jobEvent) UnmarshalJSON(b []byte) error {
	type plain jobEvent
	if err := json.Unmarshal(b, (*plain)(ev)); err != nil {
		return err
	}
	ev.raw = append(json.RawMessage(nil), b...)
	return nil
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

// openJournal opens and replays the journal and re-enqueues every job
// that was queued or running. Called from New before the workers start.
func (s *Service) openJournal() error {
	m := s.metrics
	l, info, err := wal.OpenLog(filepath.Join(s.cfg.DataDir, cmp.Or(s.cfg.Journal, "journal")), wal.LogConfig[jobEvent]{
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
		if err := tryPush(s.queue, job); err != nil {
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

// applyEvent folds one journal record into the in-memory job table and
// hands it to the runner. Events are last-write-wins per job; types
// neither knows are ignored.
func (s *Service) applyEvent(ev jobEvent) {
	defer s.runner.Apply(ev.raw)
	switch ev.Type {
	case evSubmitted, "job": // "job", "entries": a coordinator's from before the shared job model
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
	case evCheckpoint, "entries":
		// A record from an older binary carries no ligands: its job
		// re-docks from scratch.
		j := s.jobFor(ev.Job)
		j.addPartial(ev.Records...)
		for _, e := range ev.Entries {
			j.addPartial(e.Record())
		}
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
	j.submitted, j.started, j.finished = v.SubmittedAt, timeOf(v.StartedAt), timeOf(v.FinishedAt)
	j.deadline = timeOf(v.DeadlineAt)
	j.err = v.Error
	j.attempts = v.Attempts
	j.lastErr = v.LastError
	j.partial, j.log, j.cpLigands = nil, nil, 0
	if v.State.Terminal() {
		j.cpLigands = v.CheckpointLigands // reported only; the job never runs again
	}
	if v.IdempotencyKey != "" {
		// A coordinator's terminal view from before the shared job model
		// carries no key: the admission record's stands.
		j.idemKey = v.IdempotencyKey
		s.idem[v.IdempotencyKey] = j.id
	}
	j.resplits, j.shards = v.Resplits, v.Shards
	j.degraded = v.Degraded
	j.effortFactor = v.EffortFactor
	j.effectiveScale = v.EffectiveScale
	j.result = nil
	j.restored = v.Result
	if v.State == StateDone && v.Result != nil {
		// The per-ligand work counters died with the previous process; the
		// ranking stands in for the completion log /partial serves.
		for _, e := range v.Result.Ranking {
			j.addPartial(core.LigandRecord{Name: e.Ligand, Atoms: e.Atoms, Best: core.PoseRecord{Spot: e.Spot, Score: e.Score}})
		}
	}
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
// record holding its journaled ligands and its journaled cancel, then the
// runner's records. It runs inside a journal append or probe, under s.mu.
func (s *Service) snapshot() []jobEvent {
	evs := make([]jobEvent, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		v := s.viewLocked(j)
		evs = append(evs, jobEvent{Type: evSnapshot, Job: id, View: &v})
		if j.state.Terminal() {
			continue
		}
		if j.cpLigands > 0 {
			evs = append(evs, jobEvent{Type: evCheckpoint, Job: id, Records: j.records(0, j.cpLigands)})
		}
		if j.cancelRequested {
			evs = append(evs, jobEvent{Type: evCancel, Job: id})
		}
	}
	for _, rec := range s.runner.Snapshot() {
		b, err := json.Marshal(rec)
		if err == nil {
			evs = append(evs, jobEvent{raw: b})
		}
	}
	return evs
}

// checkpointLocked folds completed ligands into the job's partial set
// and, when asked to, journals the ligands completed since the job's
// previous checkpoint record as the next one, reporting whether it did.
// A failed append does not abort the screen: the journal's failure policy
// applies, the job keeps its previous records, and the next checkpoint
// record carries the missed ligands too. Storage-degraded mode skips the
// record. Caller holds s.mu.
func (s *Service) checkpointLocked(j *Job, checkpoint bool, recs ...core.LigandRecord) bool {
	j.addPartial(recs...)
	if !checkpoint || s.journal == nil || j.cpLigands == len(j.log) {
		return false
	}
	degraded, prev := s.journal.Status().Degraded, j.cpLigands
	ev := jobEvent{Type: evCheckpoint, Job: j.id, Records: j.records(prev, len(j.log))}
	// Advance before appending: a compaction this append triggers must
	// rewrite the new records too.
	j.cpLigands = len(j.log)
	if !s.journal.Append(ev) {
		j.cpLigands = prev
		if !degraded {
			s.metrics.checkpointErrors.Inc()
			s.log.Warn("checkpoint record append failed, screen continues", "job", j.id)
		}
		return false
	}
	s.metrics.checkpointsWritten.Inc()
	return true
}
