package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/metrics"
)

// The job runner is the one seam between the job model (admission, queue,
// journal, views, HTTP) and where a screen runs. The local runner docks in
// this process (runScreen); a distributed coordinator (internal/dist) is a
// Service whose runner is its chunk pool, so both roles share every
// job-level contract by construction.

// Runner runs a service's jobs.
type Runner interface {
	// Bind hands the runner its service once, from New, before the journal
	// replays and before any job runs.
	Bind(h Host)
	// Run executes one attempt of job id; the service retries, times it out
	// and cancels it through ctx. A cancel whose cause is ErrInterrupted is
	// a drain: a runner that stops for one returns ErrInterrupted, and a
	// durable job then resumes on the next boot. Ligands Run completes go
	// through Host.CheckpointLocked, as the local runner's checkpoints do.
	Run(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error)
	// Apply folds one replayed journal record, of any type, into the
	// runner's tables; Snapshot returns the runner's records for a
	// compaction. Both run under the service mutex.
	Apply(rec json.RawMessage)
	Snapshot() []any
	// Detail adds the runner's part to a job's view, and Debug to the debug
	// snapshot; both run under the service mutex.
	Detail(v *JobView)
	Debug(d *DebugSnapshot)
	// Mount adds the runner's routes to the service's API.
	Mount(mux *http.ServeMux)
}

// ErrInterrupted is the cause a drain cancels running jobs with, and what a
// runner that stopped for a drain returns. With a data dir the job is not
// journaled terminal: it resumes on the next boot, as after a crash.
var ErrInterrupted = errors.New("service: interrupted by drain")

// RunFunc is a Runner that only runs: the local runner, and the stubs the
// tests run jobs with.
type RunFunc func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error)

func (f RunFunc) Run(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
	return f(ctx, id, req)
}

func (RunFunc) Bind(Host)                {}
func (RunFunc) Apply(json.RawMessage)    {}
func (RunFunc) Snapshot() []any          { return nil }
func (RunFunc) Detail(*JobView)          {}
func (RunFunc) Debug(*DebugSnapshot)     {}
func (RunFunc) Mount(mux *http.ServeMux) {}

// Host is a runner's handle on its service. The Locked methods need the
// service mutex, which Lock takes. It guards the runner's tables as well:
// a compaction runs inside an append and snapshots both.
type Host struct{ s *Service }

func (h Host) Lock()   { h.s.mu.Lock() }
func (h Host) Unlock() { h.s.mu.Unlock() }

// Now is the service's clock.
func (h Host) Now() time.Time { return h.s.now() }

// Metrics is the registry /metrics writes, for the runner's families.
func (h Host) Metrics() *metrics.Registry { return h.s.metrics.reg }

// ProbeLocked reports whether the journal takes records, first probing a
// degraded one back; AppendLocked journals runner records under one fsync
// and reports whether they landed. Without a data dir both succeed.
func (h Host) ProbeLocked() bool { return h.s.journal.Probe() }

func (h Host) AppendLocked(recs ...any) bool {
	evs := make([]jobEvent, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return false
		}
		evs[i].raw = b
	}
	return h.s.journal.Append(evs...)
}

// CompletedLocked is job id's completed ligands by name, nil for an
// unknown job. The map is the job's own: read it under the mutex only,
// and add to it only through CheckpointLocked.
func (h Host) CompletedLocked(id string) map[string]core.LigandRecord {
	j, ok := h.s.jobs[id]
	if !ok {
		return nil
	}
	if j.partial == nil {
		j.partial = make(map[string]core.LigandRecord)
	}
	return j.partial
}

// CheckpointLocked folds completed ligands into job id and journals them
// as one checkpoint record; false means the service holds no such job.
func (h Host) CheckpointLocked(id string, recs []core.LigandRecord) bool {
	j, ok := h.s.jobs[id]
	if ok {
		h.s.checkpointLocked(j, true, recs...)
	}
	return ok
}
