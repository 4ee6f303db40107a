package dist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/trace"
)

// The supervision step Run repeats for its screen:
//
//  1. reap workers whose heartbeat expired;
//  2. under the lock — return the unfinished ligands of chunks on dead or
//     fenced workers to the pool, and let every alive worker pull chunks
//     (pool.go);
//  3. off the lock, concurrently so one blackholed worker delays no other
//     — cancel fenced zombie jobs, dispatch new chunks and long-poll
//     dispatched ones for the entries past their cursors; a poll that
//     completes its chunk merges it and at once pulls the worker's next;
//  4. under the lock — report the screen done once every ligand merged.
//
// No HTTP runs under the lock, so a slow worker never stalls the API; the
// locked re-checks, the epoch fence among them, make a response safe to
// apply even if its worker died, revived or lost a backup race meanwhile.

// remoteRef names a worker-side job for cancellation fan-out.
type remoteRef struct{ worker, remote string }

// step runs one supervision round: done once every ligand merged, err for
// a chunk that ended without its ligands, progressed when a dispatch was
// acknowledged or a chunk completed (a refused dispatch is no progress).
func (c *Coordinator) step(ctx context.Context, j *job) (done, progressed bool, err error) {
	c.reapWorkers()

	c.h.Lock()
	c.reclaimLocked(j)
	c.assignLocked(j)
	var dispatches, polls []*shard
	for _, sh := range j.shards {
		switch {
		case sh.done || sh.moved:
		case sh.remote == "":
			if c.epochValidLocked(sh) {
				dispatches = append(dispatches, sh)
			}
		default:
			polls = append(polls, sh)
		}
	}
	// Zombie worker-side jobs: the worker revived under a new epoch while
	// its old job kept running. Cancel them so revenants stop burning
	// device time on ligands handed out again.
	c.cancelLater(c.takeFencedLocked())
	c.h.Unlock()

	// Dispatches and polls run concurrently: each request is bounded by
	// the client's timeout × attempts, and no chunk waits behind another
	// chunk's blackholed worker.
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failed error
	var advanced atomic.Bool
	dispatch := func(sh *shard) {
		if c.dispatch(ctx, j, sh) {
			advanced.Store(true)
		}
	}
	for _, sh := range dispatches {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			dispatch(sh)
		}(sh)
	}
	for _, sh := range polls {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			if err := c.poll(ctx, j, sh); err != nil {
				failMu.Lock()
				failed = cmp.Or(failed, err)
				failMu.Unlock()
				return
			}
			// The poll that completed a chunk is its worker's request for
			// the next one, dispatched now rather than next step.
			var next []*shard
			c.h.Lock()
			if sh.done && ctx.Err() == nil {
				next = c.refillLocked(j, sh.worker)
			}
			c.h.Unlock()
			for _, n := range next {
				dispatch(n)
			}
		}(sh)
	}
	wg.Wait()

	c.h.Lock()
	defer c.h.Unlock()
	if failed != nil {
		c.cancelLater(append(j.remoteRefsLocked(), c.takeFencedLocked()...))
		return false, false, failed
	}
	if len(j.merged) == len(j.names) {
		// A backup race resolved by this very step's merge leaves its loser
		// on the fenced queue — and no later step to drain it.
		c.cancelLater(c.takeFencedLocked())
		return true, false, nil
	}
	progressed = advanced.Load()
	for _, sh := range polls {
		if sh.done {
			progressed = true
		}
	}
	return false, progressed, nil
}

// takeFencedLocked empties the fenced queue. Caller holds the service
// mutex.
func (c *Coordinator) takeFencedLocked() []remoteRef {
	refs := c.fenced
	c.fenced = nil
	return refs
}

// epochValidLocked reports whether a chunk's owner is alive in the epoch
// the chunk was assigned under: a revived worker's old chunks fail this
// fence, so their stale results never merge. Caller holds the mutex.
func (c *Coordinator) epochValidLocked(sh *shard) bool {
	w := c.workers[sh.worker]
	return w != nil && w.alive && w.epoch == sh.epoch
}

// reapWorkers declares every worker whose heartbeat aged past the
// timeout dead. Run by every supervisor step — membership is shared, so
// whichever job steps first does the reaping for all of them.
func (c *Coordinator) reapWorkers() {
	now := c.h.Now()
	c.h.Lock()
	defer c.h.Unlock()
	for _, w := range c.workers {
		if w.alive && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			c.markWorkerDeadLocked(w.url, "heartbeat timeout")
		}
	}
}

// markWorkerDeadLocked flips a worker to dead (idempotent). The actual
// ligand movement happens in each job's next reclaimLocked pass. Caller
// holds the service mutex.
func (c *Coordinator) markWorkerDeadLocked(url, reason string) {
	w := c.workers[url]
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	c.metrics.workerDeaths.Inc()
	c.countMembersLocked()
	c.h.AppendLocked(event{Type: evWorker, Worker: url})
	c.log.Warn("worker declared dead", "worker", url, "reason", reason)
}

// reclaimLocked returns the unmerged ligands of every live chunk whose
// worker died, or revived under a newer epoch, to the pool; merged
// ligands stay merged. Caller holds the service mutex.
func (c *Coordinator) reclaimLocked(j *job) {
	for _, sh := range j.shards {
		if sh.done || sh.moved || c.epochValidLocked(sh) {
			continue
		}
		sh.moved = true
		if w := c.workers[sh.worker]; w != nil && w.alive && w.epoch != sh.epoch {
			// The owner died and came back: the chunk is fenced, not just
			// orphaned. Its old worker-side job may still be running as a
			// zombie — queue a best-effort cancel so it stops burning time
			// on ligands about to be handed out again.
			c.metrics.shardsFenced.Inc()
			if sh.remote != "" {
				c.fenced = append(c.fenced, remoteRef{worker: sh.worker, remote: sh.remote})
			}
			c.log.Warn("fencing chunk from revived worker",
				"job", j.id, "chunk", sh.id, "worker", sh.worker,
				"chunkEpoch", sh.epoch, "workerEpoch", w.epoch)
		}
		var remaining []string
		for _, n := range sh.ligands {
			if _, ok := j.merged[n]; !ok {
				remaining = append(remaining, n)
			}
		}
		if len(remaining) == 0 {
			sh.done = true
			continue
		}
		if partner := j.livePartnerLocked(sh); partner != nil {
			// The chunk's backup twin is still racing and covers every
			// unfinished ligand here; pooling them would triple the work.
			// Unlink the survivor so it becomes a plain chunk again.
			partner.hedgeOf, partner.hedgedBy = "", ""
			c.log.Warn("backed-up chunk lost its worker; twin carries on",
				"job", j.id, "chunk", sh.id, "twin", partner.id, "worker", sh.worker)
			continue
		}
		j.returnToPool(remaining)
		j.resplits++
		c.metrics.reshards.Inc()
		t := j.rec.Now()
		j.rec.AddSpan(trace.Span{
			Track: "membership", Name: "reshard " + sh.id + " off " + sh.worker,
			Cat: trace.CatShard, Start: t, End: t,
			Args: map[string]string{"ligands": strconv.Itoa(len(remaining))},
		})
		c.log.Warn("returning chunk off dead worker to the pool",
			"job", j.id, "chunk", sh.id, "worker", sh.worker, "ligands", len(remaining))
	}
}

// aliveWorkersLocked returns alive workers sorted by URL, the order they
// pull chunks in. Caller holds the service mutex.
func (c *Coordinator) aliveWorkersLocked() []*worker {
	urls := make([]string, 0, len(c.workers))
	for u, w := range c.workers {
		if w.alive {
			urls = append(urls, u)
		}
	}
	sort.Strings(urls)
	out := make([]*worker, len(urls))
	for i, u := range urls {
		out[i] = c.workers[u]
	}
	return out
}

// dispatch submits one chunk to its worker as a Ligands-restricted
// screen under the chunk's stable idempotency key, so a re-dispatch
// (after a coordinator restart or a lost response) maps onto the
// worker's existing job. It reports whether the worker acknowledged the
// chunk.
func (c *Coordinator) dispatch(ctx context.Context, j *job, sh *shard) bool {
	req := j.req
	req.Ligands = sh.ligands
	start := j.rec.Now()
	view, err := c.cl.submit(ctx, sh.worker, req, j.id+"/"+sh.id, sh.epoch)
	now := c.h.Now()
	c.h.Lock()
	defer c.h.Unlock()
	if sh.moved || !c.epochValidLocked(sh) || ctx.Err() != nil {
		return false
	}
	if err != nil {
		c.metrics.pollErrors.Inc()
		sh.errs++
		c.log.Warn("shard dispatch failed",
			"job", j.id, "shard", sh.id, "worker", sh.worker, "err", err)
		if sh.errs >= c.cfg.FailThreshold {
			c.markWorkerDeadLocked(sh.worker, "dispatch failures")
		}
		return false
	}
	sh.errs = 0
	sh.remote = view.ID
	sh.cursor = ""
	sh.dispatched = now
	if w := c.workers[sh.worker]; w != nil {
		w.lastBeat = now
	}
	sh.waitFrom, sh.waitPolls = j.rec.Now(), 0
	j.rec.AddSpan(trace.Span{
		Track: sh.worker, Name: "dispatch " + sh.id, Cat: trace.CatShard,
		Start: start, End: sh.waitFrom,
		Args: map[string]string{"remote": view.ID, "ligands": strconv.Itoa(len(sh.ligands))},
	})
	c.log.Info("chunk dispatched",
		"job", j.id, "shard", sh.id, "worker", sh.worker, "remote", view.ID, "ligands", len(sh.ligands))
	return true
}

// poll long-polls one chunk's worker for the entries past the chunk's
// cursor and merges what's new, crediting the worker with the ligands it
// delivered first. It returns an error when the worker-side job reached a
// terminal state that cannot produce the chunk's ligands (failed, shed,
// or cancelled out from under us) — a deterministic failure re-running
// elsewhere would only repeat.
func (c *Coordinator) poll(ctx context.Context, j *job, sh *shard) error {
	pv, err := c.cl.partial(ctx, sh.worker, sh.remote, sh.epoch, sh.cursor, c.pollWait())
	if err != nil {
		if ctx.Err() != nil {
			// A cancel or Shutdown aborted the held poll: that says nothing
			// about the worker, so it must not count toward its death
			// threshold.
			return nil
		}
		var ae *apiError
		if errors.As(err, &ae) && ae.status == http.StatusNotFound {
			// The worker restarted without durability and forgot the job.
			// Clearing remote re-dispatches under the same key next step.
			c.h.Lock()
			sh.remote = ""
			c.h.Unlock()
			c.log.Warn("worker lost shard job; re-dispatching",
				"job", j.id, "shard", sh.id, "worker", sh.worker)
			return nil
		}
		c.h.Lock()
		defer c.h.Unlock()
		c.metrics.pollErrors.Inc()
		sh.errs++
		if sh.errs >= c.cfg.FailThreshold {
			c.markWorkerDeadLocked(sh.worker, "poll failures")
		}
		return nil
	}

	c.h.Lock()
	defer c.h.Unlock()
	if sh.moved || ctx.Err() != nil {
		return nil
	}
	if !c.epochValidLocked(sh) {
		// The response is from a shard whose owner died or revived under a
		// newer epoch while the poll was in flight: its ligands went (or
		// are about to go) back to the pool, so merging this body could
		// double-count. Drop it — the byte-identical-ranking invariant depends on
		// every ligand merging exactly once.
		c.metrics.staleRejected.Inc()
		c.log.Warn("rejecting stale partial from fenced shard",
			"job", j.id, "shard", sh.id, "worker", sh.worker, "shardEpoch", sh.epoch)
		return nil
	}
	sh.errs = 0
	sh.cursor = pv.Cursor
	w := c.workers[sh.worker]
	w.lastBeat = c.h.Now()

	var fresh []core.LigandRecord
	for _, e := range pv.Entries {
		if _, ok := j.atoms[e.Ligand]; !ok {
			continue
		}
		if _, ok := j.merged[e.Ligand]; ok || slices.ContainsFunc(fresh, func(r core.LigandRecord) bool { return r.Name == e.Ligand }) {
			continue
		}
		fresh = append(fresh, e.Record())
	}
	if len(fresh) > 0 {
		w.merged += int64(len(fresh))
		c.metrics.merged.Add(int64(len(fresh)))
		c.mergeLocked(j, fresh)
	}

	completed := 0
	for _, n := range sh.ligands {
		if _, ok := j.merged[n]; ok {
			completed++
		}
	}
	// One span per stretch of polling that delivered something (or ended
	// the shard), so the trace shows where the job waited without growing
	// while a shard is silent.
	sh.waitPolls++
	if len(fresh) > 0 || completed == len(sh.ligands) || pv.State.Terminal() {
		end := j.rec.Now()
		j.rec.AddSpan(trace.Span{
			Track: sh.worker, Name: "poll " + sh.id, Cat: trace.CatShard,
			Start: sh.waitFrom, End: end,
			Args: map[string]string{
				"entries": strconv.Itoa(len(pv.Entries)), "polls": strconv.Itoa(sh.waitPolls), "cursor": pv.Cursor,
			},
		})
		sh.waitFrom, sh.waitPolls = end, 0
	}

	if completed == len(sh.ligands) {
		sh.done = true
		j.rec.AddSpan(trace.Span{
			Track: sh.worker, Name: "shard " + sh.id, Cat: trace.CatShard,
			Start: sh.dispatched.Sub(j.rec.Epoch()).Seconds(), End: j.rec.Now(),
			Args: map[string]string{
				"job": j.id, "remote": sh.remote, "ligands": strconv.Itoa(len(sh.ligands)),
			},
		})
		c.resolveHedgeLocked(j, sh)
		return nil
	}
	if pv.State.Terminal() {
		if partner := j.livePartnerLocked(sh); partner != nil {
			// One leg of a backup pair died (shed, external cancel, …) but
			// its twin still covers every unfinished ligand: fence this leg
			// and let the race finish instead of failing the whole job.
			sh.moved = true
			partner.hedgeOf, partner.hedgedBy = "", ""
			c.h.AppendLocked(event{Type: evMoved, Job: j.id, Shard: sh.id})
			c.log.Warn("backup leg ended terminally; twin carries on",
				"job", j.id, "shard", sh.id, "state", pv.State, "twin", partner.id)
			return nil
		}
		// The worker-side job ended without producing every assigned
		// ligand: a real failure (bad run, shed deadline, external
		// cancel), not a liveness problem. Retrying the same request on
		// another node would deterministically repeat it.
		return fmt.Errorf("dist: chunk %s on %s ended %s with %d/%d ligands",
			sh.id, sh.worker, pv.State, completed, len(sh.ligands))
	}
	return nil
}

// pollWait is how long a worker is asked to hold a chunk poll:
// PollInterval, kept well inside RequestTimeout so a held poll is never
// mistaken for a blackholed worker.
func (c *Coordinator) pollWait() time.Duration {
	return min(c.cfg.PollInterval, c.cfg.RequestTimeout/2)
}

// remoteRefsLocked lists the job's dispatched, unfinished worker-side
// jobs. Caller holds the service mutex.
func (j *job) remoteRefsLocked() []remoteRef {
	var refs []remoteRef
	for _, sh := range j.shards {
		if sh.remote != "" && !sh.done && !sh.moved {
			refs = append(refs, remoteRef{worker: sh.worker, remote: sh.remote})
		}
	}
	return refs
}

// cancelLater best-effort cancels worker-side jobs in the background,
// under the coordinator's lifetime so Shutdown ends them.
func (c *Coordinator) cancelLater(refs []remoteRef) {
	if len(refs) == 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for _, r := range refs {
			if err := c.cl.cancel(c.reqCtx, r.worker, r.remote); err != nil {
				c.log.Warn("remote cancel failed", "worker", r.worker, "remote", r.remote, "err", err)
			}
		}
	}()
}
