package dist

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/trace"
)

// The supervision loop. Each distributed job runs one supervisor
// goroutine that repeats the same step — back to back while steps make
// progress or spend a PollInterval in held polls, at most once per
// PollInterval otherwise (superviseLocked):
//
//  1. reap workers whose heartbeat expired;
//  2. under the lock — honour a pending cancel, return the unfinished
//     ligands of chunks on dead or fenced workers to the pool, and let
//     every alive worker pull chunks (pool.go);
//  3. off the lock — cancel fenced zombie jobs (best effort), dispatch
//     undispatched chunks and long-poll dispatched ones for the entries
//     past their cursors (each worker holds the poll until its chunk is
//     complete or PollInterval passed), all concurrently so one slow or
//     blackholed worker never delays the others past its own request
//     timeout; a poll that completes its chunk merges it (journaled) and
//     at once pulls and dispatches the worker's next chunk;
//  4. under the lock — finish the job when every target ligand has
//     merged.
//
// All HTTP happens between the two locked sections, so a slow worker
// never stalls the coordinator's API; the locked re-checks — including
// the epoch fence — make the HTTP results safe to apply even if the
// worker died, revived or lost a backup race in the meantime.

// remoteRef names a worker-side job for cancellation fan-out.
type remoteRef struct{ worker, remote string }

// step runs one supervision round. finished means the job reached a
// terminal state and the supervisor should exit; progressed means a
// dispatch was acknowledged or a chunk completed, so the next step has
// something to do right away. An attempted dispatch is not progress: a
// worker that refuses them must not be asked in a loop.
func (c *Coordinator) step(j *job) (finished, progressed bool) {
	c.reapWorkers()

	c.mu.Lock()
	if j.state.Terminal() {
		c.mu.Unlock()
		return true, false
	}
	if j.cancelRequested {
		refs := append(j.remoteRefsLocked(), c.fenced...)
		c.fenced = nil
		c.finishLocked(j, service.StateCancelled, "cancelled by client")
		c.mu.Unlock()
		c.cancelRemotes(refs)
		return true, false
	}
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
	fenced := c.fenced
	c.fenced = nil
	c.mu.Unlock()

	if len(fenced) > 0 {
		// Zombie worker-side jobs: the worker revived under a new epoch
		// while its old job kept running. Cancel them so revenants stop
		// burning device time on ligands handed out again.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.cancelRemotes(fenced)
		}()
	}

	// Dispatches and polls run concurrently: each request is bounded by
	// the client's timeout × attempts, and no chunk waits behind another
	// chunk's blackholed worker.
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failMsg string
	var failed bool
	var advanced atomic.Bool
	dispatch := func(sh *shard) {
		if c.dispatch(j, sh) {
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
			if msg, fatal := c.poll(j, sh); fatal {
				failMu.Lock()
				if !failed {
					failed, failMsg = true, msg
				}
				failMu.Unlock()
				return
			}
			// The poll that completed a chunk is its worker's request for
			// the next one, dispatched now rather than next step.
			var next []*shard
			c.mu.Lock()
			if sh.done {
				next = c.refillLocked(j, sh.worker)
			}
			c.mu.Unlock()
			for _, n := range next {
				dispatch(n)
			}
		}(sh)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if j.state.Terminal() {
		return true, false
	}
	if failed {
		refs := append(j.remoteRefsLocked(), c.fenced...)
		c.fenced = nil
		c.finishLocked(j, service.StateFailed, failMsg)
		c.mu.Unlock()
		c.cancelRemotes(refs)
		c.mu.Lock()
		return true, false
	}
	if len(j.merged) == len(j.names) {
		c.finishLocked(j, service.StateDone, "")
		// A backup race resolved by this very step's merge leaves its loser
		// on the fenced queue — and no later step to drain it. Cancel now,
		// off the lock, so the slow worker stops burning device time.
		if fenced := c.fenced; len(fenced) > 0 {
			c.fenced = nil
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.cancelRemotes(fenced)
			}()
		}
		return true, false
	}
	progressed = advanced.Load()
	for _, sh := range polls {
		if sh.done {
			progressed = true
		}
	}
	return false, progressed
}

// epochValidLocked reports whether a chunk's owner is alive in the same
// registration epoch the chunk was assigned under. A worker that was
// declared dead and re-registered carries a newer epoch, so its old
// chunks fail this fence even though the URL is reachable again — the
// stale revenant's results are rejected and its ligands go back to the
// pool, never double-merged. Caller holds c.mu.
func (c *Coordinator) epochValidLocked(sh *shard) bool {
	w := c.workers[sh.worker]
	return w != nil && w.alive && w.epoch == sh.epoch
}

// reapWorkers declares every worker whose heartbeat aged past the
// timeout dead. Run by every supervisor step — membership is shared, so
// whichever job steps first does the reaping for all of them.
func (c *Coordinator) reapWorkers() {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.alive && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			c.markWorkerDeadLocked(w.url, "heartbeat timeout")
		}
	}
}

// markWorkerDeadLocked flips a worker to dead (idempotent). The actual
// ligand movement happens in each job's next reclaimLocked pass. Caller
// holds c.mu.
func (c *Coordinator) markWorkerDeadLocked(url, reason string) {
	w := c.workers[url]
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	c.metrics.workerDeaths.Inc()
	c.journal.Append(event{Type: evWorker, Worker: url})
	c.log.Warn("worker declared dead", "worker", url, "reason", reason)
}

// reclaimLocked returns the unmerged ligands of every live chunk whose
// worker died, or revived under a newer epoch, to the pool; merged
// ligands stay merged. Caller holds c.mu.
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
// pull chunks in. Caller holds c.mu.
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
func (c *Coordinator) dispatch(j *job, sh *shard) bool {
	req := j.req
	req.Ligands = sh.ligands
	start := j.rec.Now()
	view, err := c.cl.submit(c.reqCtx, sh.worker, req, j.id+"/"+sh.id, sh.epoch)
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh.moved || j.state.Terminal() || !c.epochValidLocked(sh) || c.reqCtx.Err() != nil {
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
// delivered first. It returns fatal=true with a message when the
// worker-side job reached a terminal state that cannot produce the
// chunk's ligands (failed, shed, or cancelled out from under us) — a
// deterministic failure re-running elsewhere would only repeat.
func (c *Coordinator) poll(j *job, sh *shard) (msg string, fatal bool) {
	pv, err := c.cl.partial(c.reqCtx, sh.worker, sh.remote, sh.epoch, sh.cursor, c.pollWait())
	if err != nil {
		if c.reqCtx.Err() != nil {
			// Shutdown aborted the held poll: that says nothing about the
			// worker, so it must not count toward its death threshold.
			return "", false
		}
		var ae *apiError
		if errors.As(err, &ae) && ae.status == http.StatusNotFound {
			// The worker restarted without durability and forgot the job.
			// Clearing remote re-dispatches under the same key next step.
			c.mu.Lock()
			sh.remote = ""
			c.mu.Unlock()
			c.log.Warn("worker lost shard job; re-dispatching",
				"job", j.id, "shard", sh.id, "worker", sh.worker)
			return "", false
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.metrics.pollErrors.Inc()
		sh.errs++
		if sh.errs >= c.cfg.FailThreshold {
			c.markWorkerDeadLocked(sh.worker, "poll failures")
		}
		return "", false
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if sh.moved || j.state.Terminal() {
		return "", false
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
		return "", false
	}
	sh.errs = 0
	sh.cursor = pv.Cursor
	w := c.workers[sh.worker]
	w.lastBeat = c.cfg.now()

	var fresh []service.PartialEntry
	for _, e := range pv.Entries {
		if _, ok := j.atoms[e.Ligand]; !ok {
			continue
		}
		if _, ok := j.merged[e.Ligand]; ok {
			continue
		}
		e.Rank = 0 // per-shard rank is meaningless after the merge
		j.merged[e.Ligand] = e
		fresh = append(fresh, e)
	}
	if len(fresh) > 0 {
		w.merged += int64(len(fresh))
		c.metrics.merged.Add(int64(len(fresh)))
		c.journal.Append(event{Type: evEntries, Job: j.id, Entries: fresh})
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
		return "", false
	}
	if pv.State.Terminal() {
		if partner := j.livePartnerLocked(sh); partner != nil {
			// One leg of a backup pair died (shed, external cancel, …) but
			// its twin still covers every unfinished ligand: fence this leg
			// and let the race finish instead of failing the whole job.
			sh.moved = true
			partner.hedgeOf, partner.hedgedBy = "", ""
			c.journal.Append(event{Type: evMoved, Job: j.id, Shard: sh.id})
			c.log.Warn("backup leg ended terminally; twin carries on",
				"job", j.id, "shard", sh.id, "state", pv.State, "twin", partner.id)
			return "", false
		}
		// The worker-side job ended without producing every assigned
		// ligand: a real failure (bad run, shed deadline, external
		// cancel), not a liveness problem. Retrying the same request on
		// another node would deterministically repeat it.
		return fmt.Sprintf("dist: chunk %s on %s ended %s with %d/%d ligands",
			sh.id, sh.worker, pv.State, completed, len(sh.ligands)), true
	}
	return "", false
}

// finishLocked moves a job to a terminal state, freezes its view (the
// journal's round-trip snapshot) and closes its trace. Caller holds c.mu.
func (c *Coordinator) finishLocked(j *job, state service.JobState, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = c.cfg.now()
	v := c.viewLocked(j)
	j.final = &v
	c.metrics.finished.With(string(state)).Inc()
	c.journal.Append(event{Type: evTerminal, Job: j.id, View: &v})
	j.rec.AddSpan(trace.Span{
		Track: "job", Name: j.id, Cat: trace.CatJob,
		Start: 0, End: j.rec.Now(),
		Args: map[string]string{"state": string(state), "resplits": strconv.Itoa(j.resplits)},
	})
	c.log.Info("distributed screen finished",
		"job", j.id, "state", state, "ligands", len(j.merged), "resplits", j.resplits, "err", errMsg)
}

// remoteRefsLocked lists the job's dispatched, unfinished worker-side
// jobs. Caller holds c.mu.
func (j *job) remoteRefsLocked() []remoteRef {
	var refs []remoteRef
	for _, sh := range j.shards {
		if sh.remote != "" && !sh.done && !sh.moved {
			refs = append(refs, remoteRef{worker: sh.worker, remote: sh.remote})
		}
	}
	return refs
}

// cancelRemotes best-effort cancels worker-side jobs (no lock held).
// Runs under reqCtx so Shutdown can abort in-flight cancels.
func (c *Coordinator) cancelRemotes(refs []remoteRef) {
	for _, r := range refs {
		if err := c.cl.cancel(c.reqCtx, r.worker, r.remote); err != nil {
			c.log.Warn("remote cancel failed", "worker", r.worker, "remote", r.remote, "err", err)
		}
	}
}
