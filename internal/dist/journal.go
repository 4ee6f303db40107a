package dist

// The runner's records in the service's journal, beside the service's own
// job records: membership changes and chunk assignments, which cannot be
// re-derived from the workers. A restarted coordinator rebuilds its chunk
// tables and re-dispatches unfinished chunks under their idempotency
// keys, so workers that kept running hand back the same jobs. Liveness is
// not trusted across a restart: replayed workers must re-heartbeat within
// HeartbeatTimeout or their chunks return to the pool.

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
)

// Record types. Replay hands the runner every record; the ones below are
// its own, except evTerminal, the service's, which ends a job's row.
const (
	evWorker   = "worker"   // membership change (alive flag is the new state)
	evAssign   = "assign"   // chunk assigned to a worker (a backup carries hedge_of)
	evMoved    = "moved"    // chunk fenced mid-run (backup race lost; older journals: remainder stolen)
	evTerminal = "terminal" // the service's terminal record for a job
)

// event is one runner record. Which fields are set depends on Type.
type event struct {
	Type    string   `json:"type"`
	Job     string   `json:"job,omitempty"`
	Worker  string   `json:"worker,omitempty"`
	Alive   bool     `json:"alive"`
	Epoch   uint64   `json:"epoch,omitempty"`
	Shard   string   `json:"shard,omitempty"`
	HedgeOf string   `json:"hedge_of,omitempty"`
	Ligands []string `json:"ligands,omitempty"`
}

// Snapshot implements service.Runner: the runner's compaction records,
// the minimal set that reproduces its tables — membership, then the live
// chunks of every job Run has not ended. It runs under the service mutex.
func (c *Coordinator) Snapshot() []any {
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	ids := make([]string, 0, len(c.jobs))
	for id, j := range c.jobs {
		if !j.final {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	evs := make([]any, 0, len(urls)+len(ids))
	for _, u := range urls {
		evs = append(evs, event{Type: evWorker, Worker: u, Alive: c.workers[u].alive, Epoch: c.workers[u].epoch})
	}
	for _, id := range ids {
		for _, sh := range c.jobs[id].shards {
			if !sh.moved {
				evs = append(evs, event{Type: evAssign, Job: id, Shard: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: sh.ligands, HedgeOf: sh.hedgeOf})
			}
		}
	}
	return evs
}

// Apply implements service.Runner: it folds membership and chunk records
// into the runner's tables, and drops a job's row at its terminal record.
func (c *Coordinator) Apply(raw json.RawMessage) {
	var ev event
	if json.Unmarshal(raw, &ev) != nil {
		return
	}
	switch ev.Type {
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
		// Replay runs at boot: a fresh grace window, in which the node must
		// re-heartbeat or be reaped.
		w.lastBeat = c.h.Now()
		c.countMembersLocked()
	case evAssign:
		if ev.Job == "" || ev.Shard == "" {
			return
		}
		j := c.jobs[ev.Job]
		if j == nil {
			j = &job{id: ev.Job}
			c.jobs[ev.Job] = j
		}
		sh := &shard{id: ev.Shard, worker: ev.Worker, epoch: ev.Epoch, ligands: ev.Ligands, hedgeOf: ev.HedgeOf}
		j.shards = append(j.shards, sh)
		if sh.hedgeOf != "" {
			// Reconnect the backup link so the race still resolves after
			// a restart (first completion fences the other leg).
			for _, p := range j.shards {
				if p.id == sh.hedgeOf {
					p.hedgedBy = sh.id
				}
			}
		}
		if n, perr := strconv.Atoi(strings.TrimPrefix(ev.Shard, "s")); perr == nil && n >= j.nextShard {
			j.nextShard = n + 1
		}
	case evMoved:
		if j := c.jobs[ev.Job]; j != nil {
			for _, sh := range j.shards {
				if sh.id == ev.Shard {
					sh.moved = true
				}
			}
		}
	case evTerminal:
		delete(c.jobs, ev.Job)
	}
}
