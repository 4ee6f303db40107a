package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/trace"
)

// Supervision runs at two levels. Run, every PollInterval, does the
// screen's part (supervise): it reaps workers whose heartbeat expired,
// returns the unfinished ligands of chunks on dead or fenced workers to
// the pool, cancels fenced zombie jobs, and starts a loop for every alive
// worker that has none — one that joins or revives mid-screen included.
// Each worker's loop repeats round: pull chunks (pool.go), dispatch the
// new ones, hold a poll of the oldest dispatched chunk and poll the
// younger ones, merge what they deliver, pull again. A round that made no
// progress sleeps out the rest of PollInterval.
//
// No loop waits on another worker's request, so a slow or blackholed
// worker delays only its own chunks. No HTTP runs under the lock, so a
// slow worker never stalls the API; the locked re-checks, the epoch fence
// among them, make a response safe to apply even if its worker died,
// revived or lost a backup race meanwhile.

// errComplete ends a screen's loops once every ligand merged.
var errComplete = errors.New("dist: every ligand merged")

// remoteRef names a worker-side job for cancellation fan-out.
type remoteRef struct{ worker, remote string }

// supervise is the screen's part of supervision. It returns the workers
// whose loops the caller starts, each dealt its first chunks here, in URL
// order, so loops started together split a batch the same way every run;
// and errComplete once every ligand merged.
func (c *Coordinator) supervise(j *job) ([]string, error) {
	c.h.Lock()
	defer c.h.Unlock()
	// Membership is shared: whichever screen gets here first reaps for all.
	now := c.h.Now()
	for _, w := range c.workers {
		if w.alive && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			c.markWorkerDeadLocked(w.url, "heartbeat timeout")
		}
	}
	c.reclaimLocked(j)
	// Zombie worker-side jobs: the worker revived under a new epoch while
	// its old job kept running, or lost a backup race. Cancel them so
	// revenants stop burning device time on ligands handed out again.
	c.cancelLater(c.takeFencedLocked())
	if len(j.merged) == len(j.names) {
		return nil, errComplete
	}
	var start []string
	for _, w := range c.aliveWorkersLocked() {
		if !j.loops[w.url] {
			j.loops[w.url] = true
			start = append(start, w.url)
		}
	}
	c.pullLocked(j, start...)
	return start, nil
}

// loop supervises worker url's part of job j until the screen ends or the
// worker dies; end ends the screen with errComplete or a chunk's failure.
func (c *Coordinator) loop(ctx context.Context, end context.CancelCauseFunc, j *job, url string) {
	for ctx.Err() == nil && c.keepLoop(j, url) {
		start := time.Now()
		progressed, err := c.round(ctx, j, url)
		if err != nil {
			end(err)
			return
		}
		if !progressed {
			rng.Sleep(ctx, c.cfg.PollInterval-time.Since(start))
		}
	}
}

// keepLoop reports whether worker url is still alive, and otherwise ends
// its claim on j, so supervise starts a fresh loop if it revives.
func (c *Coordinator) keepLoop(j *job, url string) bool {
	c.h.Lock()
	defer c.h.Unlock()
	if w := c.workers[url]; w != nil && w.alive {
		return true
	}
	delete(j.loops, url)
	return false
}

// round is one pass of worker url's loop on job j. It reports progress —
// a dispatch acknowledged or a chunk completed; a refused dispatch is
// none — and returns errComplete once every ligand merged, or the error
// of a chunk that ended without its ligands.
func (c *Coordinator) round(ctx context.Context, j *job, url string) (progressed bool, err error) {
	c.h.Lock()
	c.pullLocked(j, url)
	var mine []*shard
	var sent []bool // acknowledged by the worker
	for _, sh := range j.shards {
		if sh.worker == url && !sh.done && !sh.moved && c.epochValidLocked(sh) {
			mine, sent = append(mine, sh), append(sent, sh.remote != "")
		}
	}
	c.h.Unlock()

	for i, sh := range mine {
		if !sent[i] && c.dispatch(ctx, j, sh) {
			sent[i], progressed = true, true
		}
	}
	// A worker docks its chunks in order, so the oldest is the one to
	// hold; the younger ones are asked without a hold, so one the worker
	// finished out of order still merges.
	wait := c.pollWait()
	for i, sh := range mine {
		if !sent[i] {
			continue
		}
		if err := c.poll(ctx, j, sh, wait); err != nil {
			return false, err
		}
		wait = 0
	}

	c.h.Lock()
	defer c.h.Unlock()
	if len(j.merged) == len(j.names) {
		// A backup race resolved by this round's merge leaves its loser on
		// the fenced queue — and no later supervise to drain it.
		c.cancelLater(c.takeFencedLocked())
		return true, errComplete
	}
	for _, sh := range mine {
		progressed = progressed || sh.done
	}
	return progressed, nil
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

// failedLocked counts a failed request for chunk sh against its worker:
// FailThreshold consecutive ones, whichever chunks they were for, declare
// it dead. A failure from an older epoch of the worker counts for nothing.
// Caller holds the service mutex.
func (c *Coordinator) failedLocked(sh *shard, reason string) {
	c.metrics.pollErrors.Inc()
	if !c.epochValidLocked(sh) {
		return
	}
	w := c.workers[sh.worker]
	w.errs++
	if w.errs >= c.cfg.FailThreshold {
		c.markWorkerDeadLocked(sh.worker, reason)
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
	w.alive, w.errs = false, 0
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
		c.log.Warn("shard dispatch failed",
			"job", j.id, "shard", sh.id, "worker", sh.worker, "err", err)
		c.failedLocked(sh, "dispatch failures")
		return false
	}
	sh.remote = view.ID
	sh.cursor = ""
	sh.dispatched = now
	w := c.workers[sh.worker]
	w.errs, w.lastBeat = 0, now
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

// poll asks one chunk's worker for the entries past the chunk's cursor,
// held up to wait, and merges what's new, crediting the worker with the ligands it
// delivered first. It returns an error when the worker-side job reached a
// terminal state that cannot produce the chunk's ligands (failed, shed,
// or cancelled out from under us) — a deterministic failure re-running
// elsewhere would only repeat.
func (c *Coordinator) poll(ctx context.Context, j *job, sh *shard, wait time.Duration) error {
	pv, err := c.cl.partial(ctx, sh.worker, sh.remote, sh.epoch, sh.cursor, wait)
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
			// Clearing remote re-dispatches under the same key next round.
			c.h.Lock()
			sh.remote = ""
			c.h.Unlock()
			c.log.Warn("worker lost shard job; re-dispatching",
				"job", j.id, "shard", sh.id, "worker", sh.worker)
			return nil
		}
		c.h.Lock()
		defer c.h.Unlock()
		c.failedLocked(sh, "poll failures")
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
	sh.cursor = pv.Cursor
	w := c.workers[sh.worker]
	w.errs, w.lastBeat = 0, c.h.Now()

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
