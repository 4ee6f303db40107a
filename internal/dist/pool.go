package dist

import (
	"sort"
	"strconv"

	"github.com/metascreen/metascreen/internal/trace"
)

// Self-scheduling. A job keeps the ligands no live chunk covers in a
// pool, costliest first; a ligand's cost is its atom count
// (core.SyntheticAtoms), which its docking time follows (EXPERIMENTS.md).
// Each alive worker holds at most chunksPerWorker live chunks of a job,
// and every round of its supervision loop asks for more (supervise.go).
//
// Chunks are sized by factoring (Hummel, Schonberg & Flynn 1992): batches
// of P chunks for P alive workers, each about half the pool's cost over P
// and never below minChunkAtoms, dealt costliest first into the lightest
// chunk. Early chunks carry most of the work, small late ones let whoever
// is free balance the tail, with no rate estimate.
//
// One tail rule: once the pool is dry, a worker with no live chunk backs
// up the oldest chunk that ran for HeartbeatTimeout, with a twin of its
// unmerged ligands; the first to complete wins, the loser is fenced and
// cancelled. One backup per chunk, and a backup fences nothing, so no
// chain of re-dispatches can form.

// chunksPerWorker is how many live chunks of one job a worker holds: the
// one it docks and the next, queued on the worker, so it does not idle
// while the coordinator learns that the first completed (EXPERIMENTS.md
// measures 1 against 2).
const chunksPerWorker = 2

// minChunkAtoms is the factoring floor, about two mean ligands, so a tail
// chunk still amortises its dispatch and its worker-side journal records.
// A 4-ligand screen on two workers is one chunk each.
const minChunkAtoms = 64

// returnToPool puts ligands back into the pool, which stays costliest
// first with ties in name order.
func (j *job) returnToPool(names []string) {
	j.pool = append(j.pool, names...)
	sort.Slice(j.pool, func(a, b int) bool {
		x, y := j.pool[a], j.pool[b]
		if j.atoms[x] != j.atoms[y] {
			return j.atoms[x] > j.atoms[y]
		}
		return x < y
	})
}

// carveBatch deals the next factoring batch of p chunks off the pool into
// j.ready: costliest ligand first into the lightest chunk, until every
// chunk holds max(pool cost / 2p, minChunkAtoms) or the pool is empty.
// Ligands merged since they were pooled are dropped.
func (j *job) carveBatch(p int) {
	pool, total := j.pool[:0], 0
	for _, n := range j.pool {
		if _, ok := j.merged[n]; !ok {
			pool = append(pool, n)
			total += j.atoms[n]
		}
	}
	target := max(total/(2*p), minChunkAtoms)
	chunks, cost := make([][]string, p), make([]int, p)
	k := 0
	for ; k < len(pool); k++ {
		light := 0
		for i := range cost {
			if cost[i] < cost[light] {
				light = i
			}
		}
		if cost[light] >= target {
			break
		}
		chunks[light] = append(chunks[light], pool[k])
		cost[light] += j.atoms[pool[k]]
	}
	j.pool = pool[k:]
	for _, ch := range chunks {
		if len(ch) > 0 {
			j.ready = append(j.ready, ch)
		}
	}
}

// pullLocked answers the requests for work on job j of the workers in
// urls, in order: each takes chunks while it holds fewer than
// chunksPerWorker live ones, a second only once every alive worker holds
// one, so a factoring batch spreads over the workers before anyone takes
// a second; or, once nothing is left to hand out and it holds none, one
// backup. The new chunks are journaled in one append: one fsync before
// any of them is dispatched. Caller holds the service mutex.
func (c *Coordinator) pullLocked(j *job, urls ...string) {
	alive := c.aliveWorkersLocked()
	held := map[string]int{}
	for _, sh := range j.shards {
		if !sh.done && !sh.moved {
			held[sh.worker]++
		}
	}
	fewest := func() int {
		n := chunksPerWorker
		for _, a := range alive {
			n = min(n, held[a.url])
		}
		return n
	}
	var evs []any
	for _, url := range urls {
		w := c.workers[url]
		for w != nil && w.alive && held[url] < chunksPerWorker && held[url] <= fewest() {
			if len(j.ready) == 0 && len(j.pool) > 0 {
				j.carveBatch(len(alive))
			}
			var sh *shard
			switch {
			case len(j.ready) > 0:
				sh = c.newShardLocked(j, w, j.ready[0], "")
				j.ready = j.ready[1:]
			case held[url] == 0:
				sh = c.backupLocked(j, w)
			}
			if sh == nil {
				break
			}
			held[url]++
			evs = append(evs, event{Type: evAssign, Job: j.id, Shard: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: sh.ligands, HedgeOf: sh.hedgeOf})
		}
	}
	if len(evs) > 0 {
		c.h.AppendLocked(evs...)
	}
}

// backupLocked is the tail rule: w backs up the oldest live chunk that
// has run for HeartbeatTimeout and has no twin yet. A chunk whose worker's
// last request failed is not backed up: that worker is on its way to
// FailThreshold, whose death returns the chunk's ligands to the pool
// without a duplicate. Caller holds the service mutex.
func (c *Coordinator) backupLocked(j *job, w *worker) *shard {
	now := c.h.Now()
	var oldest *shard
	for _, sh := range j.shards {
		if sh.done || sh.moved || sh.remote == "" || sh.hedgeOf != "" || sh.hedgedBy != "" || !c.epochValidLocked(sh) || c.workers[sh.worker].errs > 0 {
			continue
		}
		if now.Sub(sh.dispatched) < c.cfg.HeartbeatTimeout {
			continue
		}
		if oldest == nil || sh.dispatched.Before(oldest.dispatched) {
			oldest = sh
		}
	}
	if oldest == nil {
		return nil
	}
	var rest []string
	for _, n := range oldest.ligands {
		if _, ok := j.merged[n]; !ok {
			rest = append(rest, n)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	b := c.newShardLocked(j, w, rest, oldest.id)
	oldest.hedgedBy = b.id
	c.metrics.hedgesIssued.Inc()
	t := j.rec.Now()
	j.rec.AddSpan(trace.Span{
		Track: "membership", Name: "backup " + oldest.id + " on " + w.url,
		Cat: trace.CatShard, Start: t, End: t,
		Args: map[string]string{"twin": b.id, "ligands": strconv.Itoa(len(rest))},
	})
	c.log.Info("stalled chunk backed up",
		"job", j.id, "chunk", oldest.id, "on", oldest.worker, "twin", b.id, "worker", w.url, "ligands", len(rest))
	return b
}

// newShardLocked records a new chunk of j on w (a backup when hedgeOf is
// set); pullLocked journals it. Caller holds the service mutex.
func (c *Coordinator) newShardLocked(j *job, w *worker, ligands []string, hedgeOf string) *shard {
	sh := &shard{id: "s" + strconv.Itoa(j.nextShard), worker: w.url, epoch: w.epoch, ligands: ligands, hedgeOf: hedgeOf}
	j.nextShard++
	j.shards = append(j.shards, sh)
	w.shards++
	c.metrics.shards.Inc()
	return sh
}

// livePartnerLocked returns the other half of a backup pair if it is
// still racing (not done, not moved), nil otherwise. Caller holds the service mutex.
func (j *job) livePartnerLocked(sh *shard) *shard {
	id := sh.hedgeOf
	if id == "" {
		id = sh.hedgedBy
	}
	if id == "" {
		return nil
	}
	for _, p := range j.shards {
		if p.id == id && !p.done && !p.moved {
			return p
		}
	}
	return nil
}

// resolveHedgeLocked settles a backup race after winner completed: the
// losing twin is fenced (late partials drop at the moved check) and its
// worker-side job queued for cancel so the slower worker stops burning
// time on ligands already merged. Caller holds the service mutex.
func (c *Coordinator) resolveHedgeLocked(j *job, winner *shard) {
	loser := j.livePartnerLocked(winner)
	if winner.hedgeOf != "" {
		// The backup beat the chunk it was backing.
		c.metrics.hedgeWins.Inc()
	}
	if loser == nil {
		return
	}
	loser.moved = true
	if loser.remote != "" {
		c.fenced = append(c.fenced, remoteRef{worker: loser.worker, remote: loser.remote})
	}
	c.h.AppendLocked(event{Type: evMoved, Job: j.id, Shard: loser.id})
	t := j.rec.Now()
	j.rec.AddSpan(trace.Span{
		Track: "membership", Name: "backup race won by " + winner.id + " over " + loser.id,
		Cat: trace.CatShard, Start: t, End: t,
		Args: map[string]string{"loser_worker": loser.worker},
	})
	c.log.Info("backup race resolved",
		"job", j.id, "winner", winner.id, "loser", loser.id, "loserWorker", loser.worker)
}
