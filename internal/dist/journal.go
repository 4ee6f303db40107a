package dist

// The coordinator's role table over the shared event log (wal.Log, the
// same append, compaction, replay and degraded-mode policy the node
// journals through). Every piece of distributed state that cannot be
// re-derived from the workers is journaled: job admissions (with
// idempotency keys), membership changes, chunk assignments, merged
// partial entries, and terminal snapshots. A coordinator restarted over
// the same data dir replays the journal, rebuilds its job table
// mid-screen, and re-dispatches unfinished chunks under their original
// idempotency keys — workers that kept running simply hand back the same
// jobs, so no ligand is docked twice and the final ranking is unchanged.
//
// Worker liveness is deliberately NOT trusted across a restart: replayed
// workers get a fresh heartbeat grace window and must re-heartbeat
// within HeartbeatTimeout or be declared dead and have their chunks
// returned to the pool.

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

// Event types. Unknown types are skipped on replay so newer journals
// degrade gracefully under older binaries.
const (
	evJob      = "job"      // distributed screen admitted
	evWorker   = "worker"   // membership change (alive flag is the new state)
	evAssign   = "assign"   // chunk assigned to a worker (a backup carries hedge_of)
	evMoved    = "moved"    // chunk fenced mid-run (backup race lost; older journals: remainder stolen)
	evEntries  = "entries"  // per-ligand results merged from a worker partial
	evCancel   = "cancel"   // cancellation requested
	evTerminal = "terminal" // job reached a terminal state (full snapshot)
)

// event is one journal record. Which fields are set depends on Type;
// terminal events carry the whole JobView so replay needs no other
// source of truth for finished screens.
type event struct {
	Type    string                 `json:"type"`
	Time    time.Time              `json:"time,omitempty"`
	Job     string                 `json:"job,omitempty"`
	IdemKey string                 `json:"idem_key,omitempty"`
	Request *service.ScreenRequest `json:"request,omitempty"`
	Worker  string                 `json:"worker,omitempty"`
	Alive   bool                   `json:"alive"`
	Epoch   uint64                 `json:"epoch,omitempty"`
	Shard   string                 `json:"shard,omitempty"`
	HedgeOf string                 `json:"hedge_of,omitempty"`
	Ligands []string               `json:"ligands,omitempty"`
	Entries []service.PartialEntry `json:"entries,omitempty"`
	View    *JobView               `json:"view,omitempty"`
}

// openJournal opens the coordinator's journal and replays it into the job
// and membership tables. Called from New before any supervisor starts, so
// no lock is needed.
func (c *Coordinator) openJournal() error {
	boot := c.cfg.now()
	l, info, err := wal.OpenLog(filepath.Join(c.cfg.DataDir, "dist-journal"), wal.LogConfig[event]{
		Options: wal.Options{
			Policy: c.cfg.SyncPolicy,
			Logf:   func(format string, args ...any) { c.log.Warn(fmt.Sprintf(format, args...)) },
			FS:     c.cfg.FS,
			// The journal logs each failure through Logf too.
			OnIOError: func(string, error) { c.metrics.journalErrors.Inc() },
		},
		CompactBytes: c.cfg.CompactBytes,
		Apply:        func(ev event) { c.applyEvent(ev, boot) },
		Snapshot:     c.snapshot,
		Now:          c.cfg.now,
		OnError:      c.metrics.journalErrors.Inc,
	})
	if err != nil {
		return err
	}
	c.journal = l

	// A replayed job's pool is every ligand neither merged nor covered by
	// a live chunk: never handed out before the crash, or on a chunk the
	// journal holds as fenced. Chunks of a worker whose death was
	// journaled go back to the pool in the supervisor's first step.
	resumed := 0
	for _, id := range c.order {
		jb := c.jobs[id]
		if jb.state.Terminal() {
			continue
		}
		covered := make(map[string]bool, len(jb.names))
		for _, sh := range jb.shards {
			for _, n := range sh.ligands {
				covered[n] = covered[n] || !sh.moved
			}
		}
		var pool []string
		for _, n := range jb.names {
			if _, ok := jb.merged[n]; !ok && !covered[n] {
				pool = append(pool, n)
			}
		}
		jb.pool = nil
		jb.returnToPool(pool)
		resumed++
	}
	if info.Records > 0 {
		c.log.Info("dist journal replayed",
			"records", info.Records, "jobs", len(c.jobs), "resumed", resumed,
			"workers", len(c.workers), "truncated_bytes", info.TruncatedBytes)
	}
	return nil
}

// snapshot is the journal's compaction record set, the minimal one that
// reproduces current state: membership, then per job either its terminal
// snapshot or its admission + live assignments + merged entries (+
// pending cancel). It runs inside a journal append or probe, under c.mu.
func (c *Coordinator) snapshot() []event {
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	evs := make([]event, 0, len(urls)+2*len(c.order))
	for _, u := range urls {
		evs = append(evs, event{Type: evWorker, Worker: u, Alive: c.workers[u].alive, Epoch: c.workers[u].epoch})
	}
	for _, id := range c.order {
		j := c.jobs[id]
		evs = append(evs, event{Type: evJob, Job: j.id, IdemKey: j.idemKey, Request: &j.req, Time: j.submitted})
		if j.final != nil {
			evs = append(evs, event{Type: evTerminal, Job: j.id, View: j.final})
			continue
		}
		for _, sh := range j.shards {
			if !sh.moved {
				evs = append(evs, event{Type: evAssign, Job: j.id, Shard: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: sh.ligands, HedgeOf: sh.hedgeOf})
			}
		}
		if len(j.merged) > 0 {
			entries := make([]service.PartialEntry, 0, len(j.merged))
			for _, n := range j.names {
				if e, ok := j.merged[n]; ok {
					entries = append(entries, e)
				}
			}
			evs = append(evs, event{Type: evEntries, Job: j.id, Entries: entries})
		}
		if j.cancelRequested {
			evs = append(evs, event{Type: evCancel, Job: j.id})
		}
	}
	return evs
}

// applyEvent folds one journal record into coordinator state. Replay
// only; events are last-write-wins per job.
func (c *Coordinator) applyEvent(ev event, boot time.Time) {
	switch ev.Type {
	case evJob:
		if ev.Request == nil || ev.Job == "" {
			return
		}
		jb := newJob(ev.Job, *ev.Request, ev.IdemKey, ev.Time)
		if _, ok := c.jobs[ev.Job]; !ok {
			c.order = append(c.order, ev.Job)
		}
		c.jobs[ev.Job] = jb
		if ev.IdemKey != "" {
			c.idem[ev.IdemKey] = ev.Job
		}
		if n, perr := strconv.ParseUint(strings.TrimPrefix(ev.Job, "dscreen-"), 10, 64); perr == nil && n > c.nextID {
			c.nextID = n
		}
	case evWorker:
		if ev.Worker == "" {
			return
		}
		w, ok := c.workers[ev.Worker]
		if !ok {
			w = &worker{url: ev.Worker}
			c.workers[ev.Worker] = w
		}
		w.alive = ev.Alive
		if ev.Epoch > w.epoch {
			w.epoch = ev.Epoch
		}
		// Epochs must keep advancing after a restart, or a revived zombie
		// could collide with a pre-crash epoch and slip the fence.
		// nextEpoch tracks the last epoch issued; Register pre-increments.
		if w.epoch > c.nextEpoch {
			c.nextEpoch = w.epoch
		}
		// Fresh grace window: the node must re-heartbeat or be reaped.
		w.lastBeat = boot
	case evAssign:
		jb := c.jobs[ev.Job]
		if jb == nil || ev.Shard == "" {
			return
		}
		sh := &shard{id: ev.Shard, worker: ev.Worker, epoch: ev.Epoch, ligands: ev.Ligands, hedgeOf: ev.HedgeOf}
		jb.shards = append(jb.shards, sh)
		if sh.hedgeOf != "" {
			// Reconnect the backup link so the race still resolves after
			// a restart (first completion fences the other leg).
			for _, p := range jb.shards {
				if p.id == sh.hedgeOf {
					p.hedgedBy = sh.id
				}
			}
		}
		if n, perr := strconv.Atoi(strings.TrimPrefix(ev.Shard, "s")); perr == nil && n >= jb.nextShard {
			jb.nextShard = n + 1
		}
	case evMoved:
		jb := c.jobs[ev.Job]
		if jb == nil {
			return
		}
		for _, sh := range jb.shards {
			if sh.id == ev.Shard {
				sh.moved = true
			}
		}
	case evEntries:
		jb := c.jobs[ev.Job]
		if jb == nil {
			return
		}
		for _, e := range ev.Entries {
			if _, ok := jb.atoms[e.Ligand]; ok {
				jb.merged[e.Ligand] = e
			}
		}
	case evCancel:
		if jb := c.jobs[ev.Job]; jb != nil {
			jb.cancelRequested = true
		}
	case evTerminal:
		jb := c.jobs[ev.Job]
		if jb == nil || ev.View == nil {
			return
		}
		v := *ev.View
		jb.state = v.State
		jb.errMsg = v.Error
		jb.final = &v
		if v.StartedAt != nil {
			jb.started = *v.StartedAt
		}
		if v.FinishedAt != nil {
			jb.finished = *v.FinishedAt
		}
	}
}
