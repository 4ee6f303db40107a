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
//  1. reap workers whose heartbeat expired and reassess quarantine;
//  2. under the lock — honour a pending cancel, move unfinished ligands
//     off dead or fenced workers, (re-)assign unassigned ligands to
//     shards, then run the straggler pass (steal remainders from shards
//     projected to blow the median ETA, hedge the tail — straggler.go);
//  3. off the lock — cancel fenced zombie jobs (best effort), dispatch
//     undispatched shards and long-poll dispatched ones for the entries
//     past their cursors (each worker holds the poll until its shard is
//     complete or PollInterval passed), all concurrently so one slow or
//     blackholed worker never delays the others past its own request
//     timeout;
//  4. under the lock — merge fresh entries (journaled), update worker
//     throughput estimates, and finish the job when every target ligand
//     has merged.
//
// All HTTP happens between the two locked sections, so a slow worker
// never stalls the coordinator's API; the locked re-checks — including
// the epoch fence — make the HTTP results safe to apply even if the
// worker died, revived or was re-split around in the meantime.

// remoteRef names a worker-side job for cancellation fan-out.
type remoteRef struct{ worker, remote string }

// step runs one supervision round. finished means the job reached a
// terminal state and the supervisor should exit; progressed means a
// dispatch was acknowledged or a shard completed, so the next step has
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
	c.assignLocked(j)
	c.stealHedgeLocked(j)
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
		// burning device time on ligands that were re-split elsewhere.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.cancelRemotes(fenced)
		}()
	}

	// Dispatches and polls run concurrently: each request is bounded by
	// the client's timeout × attempts, and no shard waits behind another
	// shard's blackholed worker.
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failMsg string
	var failed bool
	var advanced atomic.Bool
	for _, sh := range dispatches {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			if c.dispatch(j, sh) {
				advanced.Store(true)
			}
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
		// A hedge race resolved by this very step's merge leaves its loser
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

// epochValidLocked reports whether a shard's owner is alive in the same
// registration epoch the shard was assigned under. A worker that was
// declared dead and re-registered carries a newer epoch, so its old
// shards fail this fence even though the URL is reachable again — the
// stale revenant's results are rejected and its ligands re-split, never
// double-merged. Caller holds c.mu.
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
	c.assessQuarantineLocked()
}

// markWorkerDeadLocked flips a worker to dead (idempotent). The actual
// ligand movement happens in each job's next assignLocked pass. Caller
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

// assignLocked moves unfinished ligands off dead workers and splits
// everything unassigned across the currently alive workers: the initial
// assignment hashes ligand names (deterministic), recovery assignments
// split by observed throughput so fast survivors absorb more of the dead
// node's backlog. Caller holds c.mu.
func (c *Coordinator) assignLocked(j *job) {
	now := c.cfg.now()
	for _, sh := range j.shards {
		if sh.done || sh.moved {
			continue
		}
		if c.epochValidLocked(sh) {
			continue
		}
		sh.moved = true
		if w := c.workers[sh.worker]; w != nil && w.alive && w.epoch != sh.epoch {
			// The owner died and came back: the shard is fenced, not just
			// orphaned. Its old worker-side job may still be running as a
			// zombie — queue a best-effort cancel so it stops burning time
			// on ligands about to be re-split.
			c.metrics.shardsFenced.Inc()
			if sh.remote != "" {
				c.fenced = append(c.fenced, remoteRef{worker: sh.worker, remote: sh.remote})
			}
			c.log.Warn("fencing shard from revived worker",
				"job", j.id, "shard", sh.id, "worker", sh.worker,
				"shardEpoch", sh.epoch, "workerEpoch", w.epoch)
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
			// The shard's hedge twin is still racing and covers every
			// unfinished ligand here; re-splitting would triple the work.
			// Unlink the survivor so it becomes a plain shard again.
			partner.hedgeOf, partner.hedgedBy = "", ""
			c.log.Warn("hedged shard lost its worker; twin carries on",
				"job", j.id, "shard", sh.id, "twin", partner.id, "worker", sh.worker)
			continue
		}
		j.unassigned = append(j.unassigned, remaining...)
		j.resplits++
		c.metrics.reshards.Inc()
		t := j.rec.Now()
		j.rec.AddSpan(trace.Span{
			Track: "membership", Name: "reshard " + sh.id + " off " + sh.worker,
			Cat: trace.CatShard, Start: t, End: t,
			Args: map[string]string{"ligands": strconv.Itoa(len(remaining))},
		})
		c.log.Warn("re-splitting shard off dead worker",
			"job", j.id, "shard", sh.id, "worker", sh.worker, "ligands", len(remaining))
	}

	pending := j.orderedUnassigned()
	j.unassigned = nil
	if len(pending) == 0 {
		return
	}
	alive := c.aliveWorkersLocked()
	if len(alive) == 0 {
		j.unassigned = pending // wait for a worker to (re-)join
		return
	}
	var chunks [][]string
	if j.nextShard == 0 {
		// Initial equal split: leave quarantined workers out entirely when
		// anyone healthy is available — an equal share is exactly what a
		// known-slow worker must not get.
		var healthy []*worker
		for _, w := range alive {
			if !w.quarantined {
				healthy = append(healthy, w)
			}
		}
		if len(healthy) > 0 {
			alive = healthy
		}
		chunks = ShardByHash(pending, len(alive))
	} else {
		weights := make([]float64, len(alive))
		mask := make([]bool, len(alive))
		for i, w := range alive {
			weights[i] = w.rate.Value()
			if w.quarantined && c.cfg.QuarantineFactor > 0 {
				// Brownout: a quarantined worker still contributes, at a
				// fraction of the weight its raw rate would earn.
				weights[i] /= c.cfg.QuarantineFactor
			}
			mask[i] = true
		}
		chunks = SplitWeighted(pending, weights, mask)
	}
	for i, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		sh := &shard{id: "s" + strconv.Itoa(j.nextShard), worker: alive[i].url, epoch: alive[i].epoch, ligands: chunk}
		j.nextShard++
		j.shards = append(j.shards, sh)
		alive[i].shards++
		c.metrics.shards.Inc()
		c.journal.Append(event{Type: evAssign, Job: j.id, Shard: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: chunk})
		c.log.Info("shard assigned",
			"job", j.id, "shard", sh.id, "worker", sh.worker, "ligands", len(chunk))
	}
	if j.state == service.StateQueued {
		j.state = service.StateRunning
		j.started = now
	}
}

// orderedUnassigned returns the job's unassigned ligands in library
// order, dropping any that merged in the meantime.
func (j *job) orderedUnassigned() []string {
	if len(j.unassigned) == 0 {
		return nil
	}
	pend := make(map[string]bool, len(j.unassigned))
	for _, n := range j.unassigned {
		pend[n] = true
	}
	var out []string
	for _, n := range j.names {
		if !pend[n] {
			continue
		}
		if _, ok := j.merged[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// aliveWorkersLocked returns alive workers sorted by URL (the stable
// order shard-by-hash indexes into). Caller holds c.mu.
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

// dispatch submits one shard to its worker as a Ligands-restricted
// screen under the shard's stable idempotency key, so a re-dispatch
// (after a coordinator restart or a lost response) maps onto the
// worker's existing job. It reports whether the worker acknowledged the
// shard.
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
	sh.lastPoll = now
	sh.lastSeen = 0
	if w := c.workers[sh.worker]; w != nil {
		w.lastBeat = now
	}
	sh.waitFrom, sh.waitPolls = j.rec.Now(), 0
	j.rec.AddSpan(trace.Span{
		Track: sh.worker, Name: "dispatch " + sh.id, Cat: trace.CatShard,
		Start: start, End: sh.waitFrom,
		Args: map[string]string{"remote": view.ID, "ligands": strconv.Itoa(len(sh.ligands))},
	})
	c.log.Info("shard dispatched",
		"job", j.id, "shard", sh.id, "worker", sh.worker, "remote", view.ID, "ligands", len(sh.ligands))
	return true
}

// poll long-polls one shard's worker for the entries past the shard's
// cursor and merges what's new. It returns fatal=true with a message
// when the worker-side job reached a terminal state that cannot produce
// the shard's ligands (failed, shed, or cancelled out from under us) — a
// deterministic failure re-running elsewhere would only repeat.
func (c *Coordinator) poll(j *job, sh *shard) (msg string, fatal bool) {
	pv, err := c.cl.partial(c.reqCtx, sh.worker, sh.remote, sh.epoch, sh.cursor, c.pollWait())
	now := c.cfg.now()
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
		// newer epoch while the poll was in flight: its ligands were (or
		// are about to be) re-split, so merging this body could double-
		// count. Drop it — the byte-identical-ranking invariant depends on
		// every ligand merging exactly once.
		c.metrics.staleRejected.Inc()
		c.log.Warn("rejecting stale partial from fenced shard",
			"job", j.id, "shard", sh.id, "worker", sh.worker, "shardEpoch", sh.epoch)
		return "", false
	}
	sh.errs = 0
	sh.cursor = pv.Cursor
	w := c.workers[sh.worker]
	if w != nil {
		w.lastBeat = now
	}

	var fresh []service.PartialEntry
	for _, e := range pv.Entries {
		if !j.nameSet[e.Ligand] {
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
		c.metrics.merged.Add(int64(len(fresh)))
		c.journal.Append(event{Type: evEntries, Job: j.id, Entries: fresh})
	}

	completed := 0
	for _, n := range sh.ligands {
		if _, ok := j.merged[n]; ok {
			completed++
		}
	}
	if w != nil && !sh.lastPoll.IsZero() {
		if dt := now.Sub(sh.lastPoll).Seconds(); dt > 0 {
			// Credit the worker only with ligands its own poll delivered
			// first — in a hedge race both twins' counters move when either
			// side merges, and the loser must not inherit the winner's rate.
			freshOwn := 0
			if len(fresh) > 0 {
				freshSet := make(map[string]bool, len(fresh))
				for _, e := range fresh {
					freshSet[e.Ligand] = true
				}
				for _, n := range sh.ligands {
					if freshSet[n] {
						freshOwn++
					}
				}
			}
			w.rate.Observe(float64(freshOwn) / dt)
		}
		w.selfRate = pv.RateLPS
	}
	sh.lastPoll = now
	sh.lastSeen = completed

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
		sh.doneAt = now
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
			// One leg of a hedge pair died (shed, external cancel, …) but
			// its twin still covers every unfinished ligand: fence this leg
			// and let the race finish instead of failing the whole job.
			sh.moved = true
			partner.hedgeOf, partner.hedgedBy = "", ""
			c.journal.Append(event{Type: evMoved, Job: j.id, Shard: sh.id})
			c.log.Warn("hedge leg ended terminally; twin carries on",
				"job", j.id, "shard", sh.id, "state", pv.State, "twin", partner.id)
			return "", false
		}
		// The worker-side job ended without producing every assigned
		// ligand: a real failure (bad run, shed deadline, external
		// cancel), not a liveness problem. Retrying the same request on
		// another node would deterministically repeat it.
		return fmt.Sprintf("dist: shard %s on %s ended %s with %d/%d ligands",
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
