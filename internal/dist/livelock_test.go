package dist

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/service"
)

// The steal livelock, reproduced as a script instead of as CPU
// starvation: the coordinator runs on a virtual clock (Config.now), the
// test calls step() itself, and the workers are fakes whose ligands take
// a scripted amount of virtual time. Nothing here sleeps or depends on
// how fast the box is. The fake workers are scriptWorkers (longpoll_test.go).

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

// startSimWorker scripts a fake worker node on the virtual clock: every
// submitted shard docks its ligands one after the other from the moment
// it was submitted, each taking perLigand of virtual time (0 = never
// finishes). Like the other fakes it answers polls at once with
// everything it has; cancels are acknowledged and ignored — a fenced
// shard is never polled again.
func startSimWorker(t *testing.T, clock *simClock, perLigand time.Duration) *scriptWorker {
	t.Helper()
	sw := startScriptWorker(t)
	sw.script(func(sw *scriptWorker) {
		sw.now = clock.now
		sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
			pv := service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Total: len(sh.ligands)}
			if perLigand > 0 {
				pv.Completed = min(int(clock.now().Sub(sh.submitted)/perLigand), len(sh.ligands))
			}
			for _, name := range sh.ligands[:pv.Completed] {
				pv.Entries = append(pv.Entries, service.PartialEntry{Ligand: name, Score: -1})
			}
			if pv.Completed == len(sh.ligands) {
				pv.State = service.StateDone
			}
			return pv
		}
	})
	return sw
}

// simCluster is a coordinator on the virtual clock with one unsupervised
// job: the test advances time and calls step.
type simCluster struct {
	t       *testing.T
	c       *Coordinator
	clock   *simClock
	j       *job
	workers []string
}

const (
	simGrace = time.Second            // HeartbeatTimeout = the steal grace
	simTick  = 100 * time.Millisecond // PollInterval = virtual time per step
)

// startSim registers the workers and installs a job whose initial
// hash-split gives the alive workers (sorted by URL) shards of the given
// sizes.
func startSim(t *testing.T, clock *simClock, sizes []int, workers ...*scriptWorker) *simCluster {
	t.Helper()
	c := startCoordinator(t, Config{now: clock.now, HeartbeatTimeout: simGrace, PollInterval: simTick})
	sc := &simCluster{t: t, c: c, clock: clock}
	for _, w := range workers {
		sc.workers = append(sc.workers, w.srv.URL)
	}
	sc.beat()

	// Pick library names whose hash buckets have exactly the wanted sizes.
	const library = 64
	var names []string
	for i := 0; i < library; i++ {
		names = append(names, core.SyntheticName(i))
	}
	var ligands []string
	for b, bucket := range ShardByHash(names, len(sizes)) {
		if len(bucket) < sizes[b] {
			t.Fatalf("hash bucket %d holds %d of %d names, want %d", b, len(bucket), library, sizes[b])
		}
		ligands = append(ligands, bucket[:sizes[b]]...)
	}
	req := service.ScreenRequest{Library: library, Ligands: ligands, Seed: 1}.Normalized()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	sc.j = newJob("sim-job", req, "", clock.now())
	c.jobs[sc.j.id] = sc.j
	c.order = append(c.order, sc.j.id)
	c.mu.Unlock()
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

// tick advances one PollInterval of virtual time and runs one supervision
// step, reporting whether the job finished.
func (sc *simCluster) tick() bool {
	sc.clock.advance(simTick)
	sc.beat()
	finished, _ := sc.c.step(sc.j)
	return finished
}

// progress snapshots how many shards exist and how many ligands merged.
func (sc *simCluster) progress() (shards, merged int) {
	sc.c.mu.Lock()
	defer sc.c.mu.Unlock()
	return len(sc.j.shards), len(sc.j.merged)
}

// TestStealChainCannotOutrunLigand: every ligand takes three steal
// graces. Two equal workers get one and three ligands; when the first
// goes idle the second's remainder is stolen, and from then on the
// shard's current owner always looks stalled after one grace (no ligand
// can complete in it) while the other worker is idle — the parent stole
// the remainder back and forth forever, each steal cancelling the ligand
// in flight. With the grace doubling per steal behind a shard, the chain
// outgrows the ligand after two steals and the ligand completes.
func TestStealChainCannotOutrunLigand(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	sc := startSim(t, clock, []int{1, 3},
		startSimWorker(t, clock, 3*simGrace), startSimWorker(t, clock, 3*simGrace))

	// barren counts consecutive shard creations with no ligand merged in
	// between — the progress invariant: a shard-ID chain must not grow
	// without work completing.
	lastShards, lastMerged := sc.progress()
	barren, maxBarren := 0, 0
	const maxTicks = 3000 // 300 virtual seconds; in sequence the 4 ligands need 12
	for i := 0; ; i++ {
		if i == maxTicks {
			shards, merged := sc.progress()
			t.Fatalf("livelock: after %d virtual seconds %d/4 ligands merged over %d shard IDs (%d steals)",
				maxTicks/10, merged, shards, expositionCounter(t, sc.c, "metascreen_dist_shards_stolen_total"))
		}
		finished := sc.tick()
		shards, merged := sc.progress()
		if merged > lastMerged {
			barren = 0
		}
		barren += shards - lastShards
		maxBarren = max(maxBarren, barren)
		lastShards, lastMerged = shards, merged
		if finished {
			break
		}
	}
	v, err := sc.c.Get(sc.j.id)
	if err != nil || v.State != service.StateDone || v.Completed != 4 {
		t.Fatalf("job ended %+v (%v)", v.State, err)
	}
	if got := expositionCounter(t, sc.c, "metascreen_dist_shards_stolen_total"); got < 1 {
		t.Fatal("scenario never stole: it does not exercise the chain")
	}
	// log2(ligand time / grace) rounds up to 2 steals per chased ligand,
	// plus the initial pair of shards.
	if lastShards > 8 {
		t.Errorf("%d shard IDs for a 4-ligand screen", lastShards)
	}
	if maxBarren > 3 {
		t.Errorf("%d shard IDs in a row were created without a ligand completing", maxBarren)
	}
	if got := expositionCounter(t, sc.c, "metascreen_dist_ligands_merged_total"); got != 4 {
		t.Errorf("ligands_merged_total = %d, want 4", got)
	}
}

// TestStealGraceUnchangedAtGenerationZero: a first-generation shard on a
// stalled worker is stolen when it has run for exactly the configured
// grace — the doubling applies only to shards made by a steal.
func TestStealGraceUnchangedAtGenerationZero(t *testing.T) {
	clock := &simClock{t: time.Unix(1_000_000, 0)}
	fast := startSimWorker(t, clock, simGrace/5)
	stalled := startSimWorker(t, clock, 0)
	// Bucket order follows URL order; give both buckets two ligands so it
	// does not matter which worker sorts first.
	sc := startSim(t, clock, []int{2, 2}, fast, stalled)

	var victim *shard
	for i := 0; i < 100; i++ {
		sc.tick()
		sc.c.mu.Lock()
		for _, sh := range sc.j.shards {
			if sh.worker == stalled.srv.URL && sh.steals == 0 {
				victim = sh
			}
		}
		moved, age := victim != nil && victim.moved, time.Duration(0)
		if victim != nil && !victim.dispatched.IsZero() {
			age = clock.now().Sub(victim.dispatched)
		}
		sc.c.mu.Unlock()
		if moved {
			if age < simGrace || age > simGrace+2*simTick {
				t.Fatalf("stalled shard stolen at age %v, want the %v grace", age, simGrace)
			}
			return
		}
		if age > simGrace+2*simTick {
			t.Fatalf("stalled shard still not stolen at age %v (grace %v)", age, simGrace)
		}
	}
	t.Fatal("stalled shard never dispatched")
}
