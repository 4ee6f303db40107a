package dist

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/service"
)

// Scheduler tests on a virtual clock: the coordinator runs on Config.now,
// the test runs supervision itself — on each tick the screen's part, then
// one round per worker in URL order, the code Run and the worker loops
// run — and the workers are scriptWorker fakes (longpoll_test.go) that
// dock like a one-slot node in scripted virtual time. No tick-driven test
// sleeps; TestHeldPollBlocksOnlyItsWorker runs Run's own loops and waits
// on conditions, never on how fast the box is.

// simClock is the virtual clock shared by the coordinator and the fakes.
type simClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *simClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *simClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// ligandAtoms is a synthetic ligand's atom count, from its name.
func ligandAtoms(name string) int {
	i, _ := strconv.Atoi(strings.TrimPrefix(name, "LIG-"))
	return core.SyntheticAtoms(i)
}

// completedAt replays the fake's one docking slot up to now and returns
// how many ligands of worker-side job id are complete. Jobs run one after
// another in admission order, each ligand taking perAtom × its atom count
// (0 = never finishes, stalling every later job too); a cancel stops a
// job where it is and frees the slot.
func (sw *scriptWorker) completedAt(id string, now time.Time, perAtom time.Duration) int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	var free time.Time
	for i := 1; i <= sw.submits; i++ {
		key := "script-" + strconv.Itoa(i)
		sh := sw.shards[key]
		start := sh.submitted
		if free.After(start) {
			start = free
		}
		stop, cancelled := sw.cancelled[key]
		n, end := 0, start
		if perAtom == 0 {
			end = start.Add(1000 * time.Hour)
		}
		for _, name := range sh.ligands {
			if perAtom == 0 {
				break
			}
			end = end.Add(perAtom * time.Duration(ligandAtoms(name)))
			if !end.After(now) && (!cancelled || !end.After(stop)) {
				n++
			}
		}
		if key == id {
			return n
		}
		if cancelled && stop.Before(end) {
			end = stop
			if end.Before(start) {
				end = start
			}
		}
		free = end
	}
	return 0
}

// startSimWorker scripts a fake worker node on the virtual clock that
// docks each ligand in perAtom × its atom count. It answers polls at once
// with everything it has completed.
func startSimWorker(t *testing.T, clock *simClock, perAtom time.Duration) *scriptWorker {
	t.Helper()
	sw := startScriptWorker(t)
	sw.script(func(sw *scriptWorker) {
		sw.now = clock.now
		sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
			done := sw.completedAt(r.PathValue("id"), clock.now(), perAtom)
			pv := service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Completed: done, Total: len(sh.ligands)}
			for _, name := range sh.ligands[:done] {
				pv.Entries = append(pv.Entries, exploreEntry(name))
			}
			if done == len(sh.ligands) {
				pv.State = service.StateDone
			}
			return pv
		}
	})
	return sw
}

// cancelCount is how many of the fake's jobs the coordinator cancelled.
func (sw *scriptWorker) cancelCount() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.cancelled)
}

// simCluster is a coordinator on the virtual clock with one unsupervised
// job: the test advances time and supervises it.
type simCluster struct {
	t       *testing.T
	c       *Coordinator
	clock   *simClock
	j       *job
	workers []string
	ticks   int
}

const (
	simGrace = time.Second            // HeartbeatTimeout = the backup grace
	simTick  = 100 * time.Millisecond // PollInterval = virtual time per tick
)

// startSim registers the workers (in URL order) and installs a screen of
// the first library ligands.
func startSim(t *testing.T, clock *simClock, library int, workers ...*scriptWorker) *simCluster {
	t.Helper()
	c := startCoordinator(t, Config{Service: service.Config{Clock: clock.now}, HeartbeatTimeout: simGrace, PollInterval: simTick})
	sc := &simCluster{t: t, c: c, clock: clock}
	for _, w := range workers {
		sc.workers = append(sc.workers, w.srv.URL)
	}
	sort.Strings(sc.workers)
	sc.beat()
	req := service.ScreenRequest{Library: library, Seed: 1}.Normalized()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	c.h.Lock()
	sc.j = newJob("sim-job", req, nil, nil)
	c.jobs[sc.j.id] = sc.j
	c.h.Unlock()
	return sc
}

// beat heartbeats every worker, as their registration loops would.
func (sc *simCluster) beat() {
	for _, u := range sc.workers {
		if _, err := sc.c.Register(u); err != nil {
			sc.t.Fatal(err)
		}
	}
}

// tick advances one PollInterval of virtual time, then runs the screen's
// part of supervision and one round of each worker's loop, reporting
// whether the job finished.
func (sc *simCluster) tick() bool {
	sc.clock.advance(simTick)
	sc.ticks++
	sc.beat()
	_, err := sc.c.supervise(sc.j)
	for _, u := range sc.workers {
		if err != nil {
			break
		}
		_, err = sc.c.round(context.Background(), sc.j, u)
	}
	if err != nil && !errors.Is(err, errComplete) {
		sc.t.Fatal(err)
	}
	return err != nil
}

// run ticks until the job finishes, failing past maxTicks, and returns the
// makespan in virtual time.
func (sc *simCluster) run(maxTicks int) time.Duration {
	sc.t.Helper()
	for !sc.tick() {
		if sc.ticks >= maxTicks {
			sc.c.h.Lock()
			merged, chunks := len(sc.j.merged), len(sc.j.shards)
			sc.c.h.Unlock()
			sc.t.Fatalf("job not done after %v of virtual time: %d/%d merged over %d chunks",
				time.Duration(sc.ticks)*simTick, merged, len(sc.j.names), chunks)
		}
	}
	return time.Duration(sc.ticks) * simTick
}

// chunks snapshots the job's chunk table.
func (sc *simCluster) chunks() []ShardView {
	v := JobView{ID: sc.j.id}
	sc.c.h.Lock()
	sc.c.Detail(&v)
	sc.c.h.Unlock()
	return v.Shards
}

// expositionCounter reads one Metrics counter through the exposition text,
// the same surface operators scrape — so the test also pins the metric
// names the runbooks grep for.
func expositionCounter(t *testing.T, c *Coordinator, name string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("unparseable %s value %q", name, f[1])
			}
			return n
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// checkMergedLibrary asserts the finished sim job merged every ligand
// exactly once.
func (sc *simCluster) checkMergedLibrary() {
	sc.t.Helper()
	sc.c.h.Lock()
	merged := len(sc.j.merged)
	sc.c.h.Unlock()
	if merged != len(sc.j.names) {
		sc.t.Fatalf("job ended with %d/%d merged", merged, len(sc.j.names))
	}
	if got := expositionCounter(sc.t, sc.c, "metascreen_dist_ligands_merged_total"); got != len(sc.j.names) {
		sc.t.Errorf("ligands_merged_total = %d, want %d", got, len(sc.j.names))
	}
}

// TestSmallScreenOneChunkPerWorker: a 4-ligand screen on two workers is
// one chunk per worker — the factoring floor keeps dist_small at one
// dispatch and one poll stream per worker — and the two chunks carry the
// same atom count.
func TestSmallScreenOneChunkPerWorker(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	sc := startSim(t, clock, 4, startSimWorker(t, clock, time.Millisecond), startSimWorker(t, clock, time.Millisecond))
	sc.run(100)
	sc.checkMergedLibrary()
	sc.c.h.Lock()
	defer sc.c.h.Unlock()
	if len(sc.j.shards) != 2 || sc.j.shards[0].worker == sc.j.shards[1].worker {
		t.Fatalf("4-ligand screen on 2 workers made %d chunks: %+v", len(sc.j.shards), sc.j.shards)
	}
	var cost [2]int
	for i, sh := range sc.j.shards {
		for _, n := range sh.ligands {
			cost[i] += ligandAtoms(n)
		}
	}
	if cost[0] != cost[1] {
		t.Errorf("chunk costs %v atoms, want the 102 atoms split evenly", cost)
	}
}

// TestFactoringSizesShrinkToFloor: batch by batch the chunk target halves
// until it reaches minChunkAtoms and stays there; every chunk holds at
// least its batch's target (except when the pool runs dry) and less than
// the target plus one ligand; and the chunks cover the library exactly
// once.
func TestFactoringSizesShrinkToFloor(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7} {
		j := newJob("factoring", service.ScreenRequest{Library: 384}.Normalized(), nil, nil)
		seen := map[string]bool{}
		last := 1 << 30
		for len(j.pool) > 0 {
			total := 0
			for _, n := range j.pool {
				total += j.atoms[n]
			}
			target := max(total/(2*p), minChunkAtoms)
			if target > last {
				t.Fatalf("p=%d: batch target grew from %d to %d", p, last, target)
			}
			last = target
			j.carveBatch(p)
			if len(j.ready) > p {
				t.Fatalf("p=%d: a batch of %d chunks", p, len(j.ready))
			}
			for _, ch := range j.ready {
				cost := 0
				for _, n := range ch {
					if seen[n] {
						t.Fatalf("p=%d: %s in two chunks", p, n)
					}
					seen[n] = true
					cost += j.atoms[n]
				}
				if (cost < target && len(j.pool) > 0) || cost >= target+45 {
					t.Fatalf("p=%d: chunk of %d atoms in a batch with target %d", p, cost, target)
				}
			}
			j.ready = nil
		}
		if last != minChunkAtoms || len(seen) != 384 {
			t.Fatalf("p=%d: last target %d (floor %d), %d of 384 ligands carved", p, last, minChunkAtoms, len(seen))
		}
	}
}

// TestSlowWorkerMakespan: two equal workers and one four times slower on
// a 64-ligand screen. The static hash split plus ETA stealing this
// scheduler replaced (StealThreshold 3, QuarantineFactor 4, its defaults)
// took 2.3 s of virtual time on this exact script: the slow worker's ETA
// never passed three times the reference, so nothing was stolen and it
// docked its whole third of the library. Chunk self-scheduling must be no
// slower; it takes 1.5 s.
func TestSlowWorkerMakespan(t *testing.T) {
	const parent = 2300 * time.Millisecond
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	sc := startSim(t, clock, 64,
		startSimWorker(t, clock, time.Millisecond), startSimWorker(t, clock, time.Millisecond),
		startSimWorker(t, clock, 4*time.Millisecond))
	makespan := sc.run(1000)
	sc.checkMergedLibrary()
	t.Logf("makespan %v (parent %v), %d chunks, %d backups", makespan, parent, len(sc.chunks()),
		expositionCounter(t, sc.c, "metascreen_dist_hedges_issued_total"))
	if makespan > parent {
		t.Errorf("makespan %v, parent's static split + steal %v", makespan, parent)
	}
}

// TestHedgeTailRace: one worker stalls at zero progress while staying
// reachable. Once the healthy worker has drained the pool, each chunk the
// stalled worker holds gets exactly one backup on it — never a second,
// and never a backup of a backup, though each backup itself runs for
// longer than the grace. The backups win, the stalled chunks are fenced
// and cancelled, and every ligand merges once.
func TestHedgeTailRace(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	healthy := startSimWorker(t, clock, 20*time.Millisecond)
	stalled := startSimWorker(t, clock, 0)
	sc := startSim(t, clock, 24, healthy, stalled)
	sc.run(3000)
	sc.checkMergedLibrary()

	backups := map[string]int{}
	stalledChunks := 0
	for _, sh := range sc.chunks() {
		if sh.HedgeOf != "" {
			backups[sh.HedgeOf]++
			if sh.Worker != healthy.srv.URL {
				t.Errorf("backup %s on %s, want the healthy worker", sh.ID, sh.Worker)
			}
		}
	}
	for _, sh := range sc.chunks() {
		if sh.Worker != stalled.srv.URL {
			continue
		}
		stalledChunks++
		if backups[sh.ID] != 1 || !sh.Moved {
			t.Errorf("stalled chunk %s: %d backups, moved=%v; want exactly one backup and fenced", sh.ID, backups[sh.ID], sh.Moved)
		}
	}
	if stalledChunks != chunksPerWorker {
		t.Errorf("stalled worker held %d chunks, want %d", stalledChunks, chunksPerWorker)
	}
	if got := expositionCounter(t, sc.c, "metascreen_dist_hedges_issued_total"); got != stalledChunks {
		t.Errorf("hedges_issued_total = %d for %d stalled chunks", got, stalledChunks)
	}
	if got := expositionCounter(t, sc.c, "metascreen_dist_hedge_wins_total"); got != stalledChunks {
		t.Errorf("hedge_wins_total = %d for %d stalled chunks", got, stalledChunks)
	}
	// The losers' worker-side jobs get a best-effort cancel off the
	// supervisor's lock.
	waitCond(t, "cancels of the fenced chunks", func() bool { return stalled.cancelCount() == stalledChunks })
}

// TestBackupNoopOnSingleWorker: a one-worker cluster has nobody to back a
// chunk up, so however long its chunk stalls, nothing is fenced,
// cancelled or duplicated.
func TestBackupNoopOnSingleWorker(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	stalled := startSimWorker(t, clock, 0)
	sc := startSim(t, clock, 12, stalled)
	for i := 0; i < int(10*simGrace/simTick); i++ {
		if sc.tick() {
			t.Fatal("a stalled screen finished")
		}
	}
	if got := expositionCounter(t, sc.c, "metascreen_dist_hedges_issued_total"); got != 0 {
		t.Errorf("hedges_issued_total = %d on a single-worker cluster, want 0", got)
	}
	if n := stalled.cancelCount(); n != 0 {
		t.Errorf("%d of the only worker's chunks cancelled", n)
	}
	if got := len(sc.chunks()); got != chunksPerWorker {
		t.Errorf("%d chunks for one worker, want %d", got, chunksPerWorker)
	}
}

// TestBackupGraceIsHeartbeatTimeout: a chunk on a stalled worker is
// backed up once it has run for the heartbeat timeout, not before and not
// much later.
func TestBackupGraceIsHeartbeatTimeout(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	fast := startSimWorker(t, clock, time.Millisecond)
	stalled := startSimWorker(t, clock, 0)
	sc := startSim(t, clock, 4, fast, stalled)
	for i := 0; i < 100; i++ {
		sc.tick()
		sc.c.h.Lock()
		var victim *shard
		for _, sh := range sc.j.shards {
			if sh.worker == stalled.srv.URL {
				victim = sh
			}
		}
		backedUp, age := victim != nil && victim.hedgedBy != "", time.Duration(0)
		if victim != nil && !victim.dispatched.IsZero() {
			age = clock.now().Sub(victim.dispatched)
		}
		sc.c.h.Unlock()
		if backedUp {
			if age < simGrace || age > simGrace+2*simTick {
				t.Fatalf("stalled chunk backed up at age %v, want the %v grace", age, simGrace)
			}
			return
		}
		if age > simGrace+2*simTick {
			t.Fatalf("stalled chunk still not backed up at age %v (grace %v)", age, simGrace)
		}
	}
	t.Fatal("stalled chunk never dispatched")
}

// TestBackupChainCannotForm: every ligand takes three graces, so every
// live chunk looks stalled to the tail rule. The parent's steal fenced
// the chunk in flight and re-dispatched it, over and over; a backup
// fences nothing and is never backed up itself, so chunk IDs stay bounded
// and each ligand completes on its first run.
func TestBackupChainCannotForm(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	perAtom := 3 * simGrace / 18
	sc := startSim(t, clock, 4, startSimWorker(t, clock, perAtom), startSimWorker(t, clock, 3*perAtom/2))
	sc.run(3000)
	sc.checkMergedLibrary()
	chunks := sc.chunks()
	backups := 0
	for _, sh := range chunks {
		if sh.HedgeOf != "" {
			backups++
		}
	}
	if len(chunks) > 2+backups || backups > 2 {
		t.Errorf("%d chunk IDs (%d backups) for a 4-ligand screen on 2 workers", len(chunks), backups)
	}
}

// TestReshardMovesOnlyDeadNodesLigands: the recovery invariant, as a
// property over random membership and progress: when a worker dies,
// survivors keep every chunk they hold, merged ligands stay merged, and
// what returns to the pool is exactly the dead worker's unmerged ligands.
func TestReshardMovesOnlyDeadNodesLigands(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		c := startCoordinator(t, Config{})
		n := 2 + rng.Intn(5) // 2..6 workers
		var urls []string
		for i := 0; i < n; i++ {
			u := "http://w" + strconv.Itoa(i) + ":1"
			urls = append(urls, u)
			if _, err := c.Register(u); err != nil {
				t.Fatal(err)
			}
		}
		j := newJob("reshard", service.ScreenRequest{Library: 50 + rng.Intn(400)}.Normalized(), nil, nil)
		c.h.Lock()
		for range chunksPerWorker {
			c.pullLocked(j, urls...)
		}
		for _, sh := range j.shards {
			for _, name := range sh.ligands {
				if rng.Intn(3) == 0 {
					j.merged[name] = exploreEntry(name).Record()
				}
			}
		}
		pooled := map[string]bool{}
		for _, name := range j.pool {
			pooled[name] = true
		}
		for _, ch := range j.ready {
			for _, name := range ch {
				pooled[name] = true
			}
		}
		dead := urls[rng.Intn(n)]
		want := map[string]bool{}
		kept := map[string]bool{}
		for _, sh := range j.shards {
			for _, name := range sh.ligands {
				if _, ok := j.merged[name]; ok {
					continue
				}
				if sh.worker == dead {
					want[name] = true
				}
			}
			if sh.worker != dead {
				kept[sh.id] = true
			}
		}
		c.markWorkerDeadLocked(dead, "property test")
		c.reclaimLocked(j)
		for _, sh := range j.shards {
			if kept[sh.id] == sh.moved {
				t.Fatalf("trial %d: chunk %s on %s moved=%v (dead worker %s)", trial, sh.id, sh.worker, sh.moved, dead)
			}
		}
		for _, name := range j.pool {
			if pooled[name] {
				delete(pooled, name)
				continue
			}
			if !want[name] {
				t.Fatalf("trial %d: %s returned to the pool, not an unmerged ligand of dead worker %s", trial, name, dead)
			}
			delete(want, name)
		}
		if len(want) != 0 {
			t.Fatalf("trial %d: %d unmerged ligands of the dead worker did not return to the pool", trial, len(want))
		}
		for i := 1; i < len(j.pool); i++ {
			a, b := j.pool[i-1], j.pool[i]
			if j.atoms[a] < j.atoms[b] || (j.atoms[a] == j.atoms[b] && a > b) {
				t.Fatalf("trial %d: pool not costliest first at %s, %s", trial, a, b)
			}
		}
		c.h.Unlock()
	}
}

// TestSnapshotExposesWorkerMerged: /debug/snapshot, a node's snapshot
// plus the runner's membership with per-worker merged counts, in one GET
// — what an operator (or the e2e straggler drill) reads to see who is
// slow.
func TestSnapshotExposesWorkerMerged(t *testing.T) {
	c := startCoordinator(t, Config{})
	if _, err := c.Register("http://w:1"); err != nil {
		t.Fatal(err)
	}
	c.h.Lock()
	c.workers["http://w:1"].merged = 7
	c.h.Unlock()

	api := httptest.NewServer(c.Handler())
	defer api.Close()
	resp, err := api.Client().Get(api.URL + "/debug/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/snapshot: status %d", resp.StatusCode)
	}
	var snap struct {
		Stats   service.Stats `json:"stats"`
		Workers []WorkerView  `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Workers != service.DefaultQueueDepth {
		t.Errorf("snapshot stats report %d supervision slots, want the queue bound %d", snap.Stats.Workers, service.DefaultQueueDepth)
	}
	if len(snap.Workers) != 1 || snap.Workers[0].Merged != 7 {
		t.Errorf("snapshot workers = %+v, want one with 7 ligands merged", snap.Workers)
	}
}

func workerView(t *testing.T, c *Coordinator, url string) WorkerView {
	t.Helper()
	for _, w := range c.Workers() {
		if w.URL == url {
			return w
		}
	}
	t.Fatalf("worker %s not in membership", url)
	return WorkerView{}
}

// TestHeldPollBlocksOnlyItsWorker: one worker holds its chunk poll until
// the test releases it. Each worker has its own supervision loop, so the
// other worker's chunks keep being dispatched, completed and merged
// meanwhile, until every ligand the blocked worker does not hold merged.
// Once released the screen finishes, and every loop exits with Run.
func TestHeldPollBlocksOnlyItsWorker(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	healthy := startSimWorker(t, clock, time.Millisecond)
	blocked := startScriptWorker(t)
	release := make(chan struct{})
	var held atomic.Int32
	blocked.script(func(sw *scriptWorker) {
		sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
			held.Add(1)
			defer held.Add(-1)
			select {
			case <-release:
			case <-r.Context().Done():
			}
			pv := service.PartialView{ID: r.PathValue("id"), State: service.StateDone, Completed: len(sh.ligands), Total: len(sh.ligands)}
			for _, name := range sh.ligands {
				pv.Entries = append(pv.Entries, exploreEntry(name))
			}
			return pv
		}
	})
	c := startCoordinator(t, Config{
		Service:          service.Config{Clock: clock.now},
		HeartbeatTimeout: time.Hour, RequestTimeout: time.Hour, PollInterval: 5 * time.Millisecond,
	})
	for _, u := range []string{healthy.srv.URL, blocked.srv.URL} {
		if _, err := c.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	req := distRequest
	req.Library = 24
	before := runtime.NumGoroutine()
	v, _, err := c.SubmitIdem(req, "")
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the blocked worker's held poll", func() bool { return held.Load() >= 1 })

	onBlocked := func() (ligands, chunks int) {
		c.h.Lock()
		defer c.h.Unlock()
		for _, sh := range c.jobs[v.ID].shards {
			if sh.worker == blocked.srv.URL {
				ligands += len(sh.ligands)
				chunks++
			}
		}
		return ligands, chunks
	}
	waitCond(t, "every ligand off the blocked worker merged", func() bool {
		clock.advance(20 * time.Millisecond)
		got, err := c.Get(v.ID)
		n, _ := onBlocked()
		return err == nil && got.Completed == req.Library-n
	})
	if held.Load() < 1 {
		t.Fatal("the blocked poll returned before its release")
	}
	if _, chunks := onBlocked(); chunks != chunksPerWorker {
		t.Fatalf("the blocked worker holds %d chunks, want %d", chunks, chunksPerWorker)
	}
	if submits, _ := healthy.counts(); submits <= chunksPerWorker {
		t.Fatalf("the healthy worker was dispatched %d chunks while the other poll was held", submits)
	}

	close(release)
	final := waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone || final.Completed != req.Library {
		t.Fatalf("screen ended %s with %d/%d ligands: %s", final.State, final.Completed, req.Library, final.Error)
	}
	waitCond(t, "every supervision loop to exit", func() bool {
		c.cl.hc.CloseIdleConnections()
		return runtime.NumGoroutine() <= before
	})
}
