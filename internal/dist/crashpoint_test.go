package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

// The coordinator's ALICE-style crash-point explorer, the sibling of
// service/crashpoint_test.go. A recording run of a fixed workload counts
// the mutating filesystem operations under the coordinator's journal; the
// workload is then replayed once per operation with a crash@opK plan — a
// power loss at that boundary, which also drops every byte a file received
// after its last fsync — and a fresh coordinator boots on each frozen dir
// against the same fake workers. The invariants:
//
//   - every 202 survives: a screen whose Submit succeeded exists after
//     recovery;
//   - every acknowledged screen ends done, or cancelled if (and only if)
//     its cancel was acknowledged;
//   - the recovered ranking is byte-identical to the one-node reference;
//   - every ligand merges exactly once: the recovered merged set is the
//     library, and recovery merges only the ligands the journal did not
//     hold as merged;
//   - worker epochs never go backwards;
//   - a fenced chunk stays fenced.
//
// The workload runs on the virtual clock, so every journaled timestamp —
// and with it every record's size and so the compaction points — is the
// same run to run, against two scriptWorker fakes reached through an
// in-process transport under fixed host names. The test releases the
// fakes' ligands one chunk and one ligand at a time and waits for each
// merge, and for the pulls it triggers, which fixes the order of the
// journal's records.

// coordExplorerSeed keys every fsim in the explorer.
const coordExplorerSeed = 737373

// The fake workers' URLs; "a" sorts first, so it pulls first.
const (
	explorerA = "http://wa.test"
	explorerB = "http://wb.test"
)

var (
	// exploreScreen is the screen that runs to completion: chunks pulled
	// by both workers, held polls that deliver entries, worker b's death
	// and its revival under a new epoch, and a backup of the last chunk.
	exploreScreen = service.ScreenRequest{
		Dataset: "2BSM", Library: 32, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7,
	}
	// exploreCancelled is submitted and cancelled before exploreScreen
	// finishes.
	exploreCancelled = service.ScreenRequest{
		Dataset: "2BSM", Library: 4, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 8,
	}
)

const (
	exploreScreenKey    = "explore-screen"
	exploreCancelledKey = "explore-cancelled"
)

// exploreEntry is the fakes' result for one ligand: a pure function of
// its name, as a real worker's is of its seed lane, so placement and
// re-dispatch never change it.
func exploreEntry(name string) service.PartialEntry {
	h := fnv.New32a()
	h.Write([]byte(name))
	x := h.Sum32()
	return service.PartialEntry{
		Ligand: name, Atoms: 18 + int(x%27), Score: -float64(x%10000) / 100,
		Spot: int(x % 2), SimSeconds: 0.25, Evaluations: 1000,
	}
}

// exploreReference is the one-node ranking of exploreScreen: every
// library ligand's record ranked at once, as a node ranks its own.
func exploreReference(t *testing.T) *service.ResultView {
	req := exploreScreen.Normalized()
	recs := map[string]core.LigandRecord{}
	for i := 0; i < req.Library; i++ {
		recs[core.SyntheticName(i)] = exploreEntry(core.SyntheticName(i)).Record()
	}
	s, err := service.New(service.Config{Logger: quiet, Runner: service.RunFunc(
		func(context.Context, string, service.ScreenRequest) (*core.ScreenResult, error) {
			return core.Aggregate(service.LibraryOf(req), nil, recs), nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	v, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for !v.State.Terminal() {
		time.Sleep(time.Millisecond)
		v, _ = s.Get(v.ID)
	}
	return v.Result
}

// fakeNet routes requests for the fake hosts straight to their handlers,
// records the fencing epoch each host is sent, and refuses every request
// to a host marked down, as a dead node would.
type fakeNet struct {
	mu     sync.Mutex
	hosts  map[string]http.Handler
	down   map[string]bool
	epochs map[string][]uint64 // epoch headers received, per host URL
}

func (n *fakeNet) RoundTrip(r *http.Request) (*http.Response, error) {
	base := r.URL.Scheme + "://" + r.URL.Host
	n.mu.Lock()
	h, down := n.hosts[base], n.down[base]
	if e, err := strconv.ParseUint(r.Header.Get(service.EpochHeader), 10, 64); err == nil && !down {
		n.epochs[base] = append(n.epochs[base], e)
	}
	n.mu.Unlock()
	if h == nil || down {
		return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// takeEpochs returns the epochs each host received so far and forgets
// them.
func (n *fakeNet) takeEpochs() map[string][]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.epochs
	n.epochs = map[string][]uint64{}
	return out
}

// explorerCluster is one crash point's world: the virtual clock, the fake
// network and its two workers, and which ligands the fakes have completed.
type explorerCluster struct {
	clock *simClock
	net   *fakeNet
	ws    map[string]*scriptWorker

	mu       sync.Mutex
	released map[string]bool // "<coordinator job>/<chunk>/<ligand>" completed on the fakes
	all      bool            // every ligand is complete (the recovery run)
	changed  chan struct{}   // closed and replaced on every release
}

func newExplorerCluster(t *testing.T) *explorerCluster {
	t.Helper()
	ec := &explorerCluster{
		clock:    &simClock{t: time.Unix(1_700_000_000, 0).UTC()},
		net:      &fakeNet{hosts: map[string]http.Handler{}, down: map[string]bool{}, epochs: map[string][]uint64{}},
		ws:       map[string]*scriptWorker{},
		released: map[string]bool{},
		changed:  make(chan struct{}),
	}
	for _, u := range []string{explorerA, explorerB} {
		sw := startScriptWorker(t)
		sw.script(func(sw *scriptWorker) {
			sw.now = ec.clock.now
			sw.partial = ec.partial
		})
		ec.ws[u] = sw
		ec.net.hosts[u] = sw.srv.Config.Handler
	}
	return ec
}

// exploreHeartbeat is the explorer's HeartbeatTimeout on the virtual
// clock, which moves only when the workload moves it: to back up a chunk.
const exploreHeartbeat = 10 * time.Second

// config is the coordinator under test: one try per request so a dead
// worker is declared dead by its first refused request, and a compaction
// floor the workload's journal passes mid-screen.
func (ec *explorerCluster) config(dir string, fs fsim.FS) Config {
	return Config{
		Service: service.Config{FS: fs, Clock: ec.clock.now, CompactBytes: 4 << 10},
		DataDir: dir, Transport: ec.net, Logger: quiet,
		PollInterval: 2 * time.Millisecond, HeartbeatTimeout: exploreHeartbeat,
		RequestAttempts: 1, FailThreshold: 1,
	}
}

// partial answers a chunk poll with every completed ligand of the chunk.
// A poll whose cursor already covers them is held until a release or the
// requested wait, like a real worker's.
func (ec *explorerCluster) partial(r *http.Request, sh scriptShard) service.PartialView {
	since := -1
	if n, err := strconv.Atoi(r.URL.Query().Get("since")); err == nil {
		since = n
	}
	wait, _ := time.ParseDuration(r.URL.Query().Get("wait"))
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		ec.mu.Lock()
		pv := service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Total: len(sh.ligands)}
		for _, n := range sh.ligands {
			if ec.all || ec.released[sh.key+"/"+n] {
				pv.Entries = append(pv.Entries, exploreEntry(n))
			}
		}
		pv.Completed = len(pv.Entries)
		pv.Cursor = strconv.Itoa(pv.Completed)
		if pv.Completed == len(sh.ligands) {
			pv.State = service.StateDone
		}
		changed := ec.changed
		ec.mu.Unlock()
		if pv.Completed != since || pv.State.Terminal() {
			return pv
		}
		select {
		case <-changed:
		case <-timer.C:
			return pv
		case <-r.Context().Done():
			return pv
		}
	}
}

// release completes one ligand of a coordinator job's chunk on the fakes.
func (ec *explorerCluster) release(job, chunk, ligand string) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.released[job+"/"+chunk+"/"+ligand] = true
	close(ec.changed)
	ec.changed = make(chan struct{})
}

// completeAll makes every ligand of every chunk complete.
func (ec *explorerCluster) completeAll() {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.all = true
	close(ec.changed)
	ec.changed = make(chan struct{})
}

// exploreOutcome is what one run of the workload was acknowledged.
type exploreOutcome struct {
	acked       map[string]string // idempotency key -> coordinator job ID
	cancelAcked bool
	bDown       bool
	marks       map[string]uint64 // mutating ops done before each named step
}

// waitView waits for a coordinator job's view to satisfy pred.
func waitView(t *testing.T, c *Coordinator, id, what string, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, err := c.Get(id)
		if err == nil && pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s on %s: %+v (%v)", what, id, v, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// settled reports whether job id is quiet until the fakes' next release:
// terminal, or every live chunk acknowledged and every alive worker
// holding chunksPerWorker of them unless nothing is left to hand out.
func settled(c *Coordinator, id string) bool {
	if v, err := c.Get(id); err == nil && v.State.Terminal() {
		return true
	}
	c.h.Lock()
	defer c.h.Unlock()
	j := c.jobs[id]
	if j == nil || j.names == nil {
		return false
	}
	held := map[string]int{}
	for _, sh := range j.shards {
		if sh.done || sh.moved {
			continue
		}
		if sh.remote == "" || !c.epochValidLocked(sh) {
			return false
		}
		held[sh.worker]++
	}
	if len(j.pool) == 0 && len(j.ready) == 0 {
		return true
	}
	for _, w := range c.workers {
		if w.alive && held[w.url] < chunksPerWorker {
			return false
		}
	}
	return true
}

// liveChunks lists job id's live chunks, in assignment order, with their
// ligands.
func liveChunks(c *Coordinator, id string) (ids []string, ligands [][]string) {
	c.h.Lock()
	defer c.h.Unlock()
	for _, sh := range c.jobs[id].shards {
		if !sh.done && !sh.moved {
			ids = append(ids, sh.id)
			ligands = append(ligands, sh.ligands)
		}
	}
	return ids, ligands
}

// runExploreWorkload drives the workload against c and reports what it
// acknowledged. ops reads the filesystem's mutating-op counter.
func runExploreWorkload(t *testing.T, ec *explorerCluster, c *Coordinator, ops func() uint64) exploreOutcome {
	t.Helper()
	out := exploreOutcome{acked: map[string]string{}, marks: map[string]uint64{}}
	c.Register(explorerA)
	c.Register(explorerB)

	out.marks["submit"] = ops()
	v, _, err := c.SubmitIdem(exploreScreen, exploreScreenKey)
	if err != nil {
		return out
	}
	out.acked[exploreScreenKey] = v.ID
	settle := func(what string) {
		waitView(t, c, v.ID, what, func(JobView) bool { return settled(c, v.ID) })
	}
	settle("both workers' chunks dispatched")
	merged := 0
	complete := func(chunk string, ligands []string) {
		for _, n := range ligands {
			ec.release(v.ID, chunk, n)
			merged++
			waitView(t, c, v.ID, "a merge", func(v JobView) bool { return v.Completed >= merged })
		}
		settle("the pulls a merge triggers")
	}
	// Held polls deliver entries one at a time: all of a's first chunk,
	// whose last poll pulls a's next chunk, and part of b's.
	ids, ligands := liveChunks(c, v.ID)
	complete(ids[0], ligands[0])
	complete(ids[1], ligands[1][:3])
	withheld := ids[2] // a's second chunk, backed up at the end

	// Worker b dies; its unmerged ligands go back to the pool.
	out.marks["death"] = ops()
	ec.net.mu.Lock()
	ec.net.down[explorerB] = true
	ec.net.mu.Unlock()
	out.bDown = true
	waitView(t, c, v.ID, "b's chunks returned to the pool", func(v JobView) bool { return v.Resplits >= 2 })
	settle("a's pulls")

	// A second screen is admitted, dispatched and cancelled.
	out.marks["submit-cancelled"] = ops()
	v2, _, err := c.SubmitIdem(exploreCancelled, exploreCancelledKey)
	if err == nil {
		out.acked[exploreCancelledKey] = v2.ID
		waitView(t, c, v2.ID, "its chunks dispatched", func(JobView) bool { return settled(c, v2.ID) })
		out.marks["cancel"] = ops()
		if _, err := c.Cancel(v2.ID); err == nil {
			out.cancelAcked = true
			waitView(t, c, v2.ID, "the cancel", func(v JobView) bool { return v.State.Terminal() })
		}
	}

	// Worker b comes back under a new epoch and pulls from the pool —
	// unless the journal cannot take its revival, which is then refused.
	ec.net.mu.Lock()
	ec.net.down[explorerB] = false
	ec.net.mu.Unlock()
	if _, err := c.Register(explorerB); err == nil {
		out.bDown = false
	}
	settle("b's pulls")

	// Every chunk but the withheld one completes, in assignment order,
	// each completion pulling its worker's next chunk, until the pool is
	// dry.
	for {
		ids, ligands := liveChunks(c, v.ID)
		i := 0
		for i < len(ids) && ids[i] == withheld {
			i++
		}
		if i == len(ids) {
			break
		}
		complete(ids[i], ligands[i])
	}

	if out.bDown {
		// Nobody to back the withheld chunk up: it completes on a.
		ids, ligands := liveChunks(c, v.ID)
		complete(ids[0], ligands[0])
		waitView(t, c, v.ID, "the screen to finish", func(v JobView) bool { return v.State.Terminal() })
		return out
	}

	// The tail rule: b holds nothing, a's withheld chunk has run for the
	// heartbeat timeout, so b backs it up, and the backup wins. The clock
	// moves in two steps, each heartbeating both workers, so nobody is
	// reaped on the way.
	out.marks["backup"] = ops()
	for i := 0; i < 2; i++ {
		ec.clock.advance(exploreHeartbeat * 6 / 10)
		c.Register(explorerA)
		c.Register(explorerB)
	}
	var backup string
	var rest []string
	waitView(t, c, v.ID, "the backup dispatched", func(v JobView) bool {
		for _, sh := range v.Shards {
			if sh.HedgeOf == withheld && sh.Remote != "" {
				backup = sh.ID
			}
		}
		return backup != ""
	})
	ids, ligands = liveChunks(c, v.ID)
	for i, id := range ids {
		if id == backup {
			rest = ligands[i]
		}
	}
	complete(backup, rest)
	waitView(t, c, v.ID, "the screen to finish", func(v JobView) bool { return v.State.Terminal() })
	return out
}

// journaled is what a frozen journal holds for one coordinator job.
type journaled struct {
	merged   map[string]bool // ligands held as merged
	terminal bool            // the job's terminal record landed
	cancel   bool            // a cancel record landed
	fenced   []string        // chunks the journal holds as fenced
}

// readJournal reads a frozen journal's records, without replaying them
// through a coordinator, and returns what it holds for job id. A chunk is
// fenced when its assignment landed and so did either its move or a
// membership record that outdates its worker epoch.
func readJournal(t *testing.T, dir, id string) journaled {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "dist-journal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	out := journaled{merged: map[string]bool{}}
	type member struct {
		alive bool
		epoch uint64
	}
	workers := map[string]member{}
	assigned := map[string]event{}
	moved := map[string]bool{}
	var order []string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := wal.ScanRecords(data)
		for _, rec := range recs {
			var ev struct {
				event
				Records []core.LigandRecord    `json:"records"`
				Entries []service.PartialEntry `json:"entries"`
				View    *service.JobView       `json:"view"`
			}
			if json.Unmarshal(rec, &ev) != nil {
				continue
			}
			if ev.Type == evWorker {
				m := workers[ev.Worker]
				workers[ev.Worker] = member{alive: ev.Alive, epoch: max(m.epoch, ev.Epoch)}
			}
			if ev.Job != id {
				continue
			}
			switch ev.Type {
			case evAssign:
				if _, ok := assigned[ev.Shard]; !ok {
					order = append(order, ev.Shard)
				}
				assigned[ev.Shard] = ev.event
			case evMoved:
				moved[ev.Shard] = true
			case "checkpoint", "entries":
				for _, r := range ev.Records {
					out.merged[r.Name] = true
				}
				for _, e := range ev.Entries {
					out.merged[e.Ligand] = true
				}
			case evTerminal:
				out.terminal = true
			case "cancel":
				out.cancel = true
			case "snapshot":
				out.terminal = out.terminal || (ev.View != nil && ev.View.State.Terminal())
			}
		}
	}
	for _, sh := range order {
		a := assigned[sh]
		if w, ok := workers[a.Worker]; moved[sh] || (ok && (!w.alive || w.epoch != a.Epoch)) {
			out.fenced = append(out.fenced, sh)
		}
	}
	return out
}

// stopCoordinator shuts a coordinator down within the test's budget.
func stopCoordinator(c *Coordinator) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.Shutdown(ctx)
}

// exploreCrashPoint runs the workload with a power loss at mutating op k,
// boots a fresh coordinator on the frozen dir and checks the invariants.
func exploreCrashPoint(t *testing.T, k uint64, ref *service.ResultView) {
	dir := t.TempDir()
	ec := newExplorerCluster(t)
	plan, err := fsim.ParsePlan(fmt.Sprintf("*:crash@op%d", k))
	if err != nil {
		t.Fatal(err)
	}
	faulty := fsim.New(plan, fsim.Config{Seed: coordExplorerSeed})
	var out exploreOutcome
	c, err := New(ec.config(dir, faulty))
	if err == nil {
		out = runExploreWorkload(t, ec, c, faulty.MutatingOps)
		stopCoordinator(c)
	}
	// A New that failed crashed during boot: nothing was acknowledged.
	sent := ec.net.takeEpochs()
	screen, second := out.acked[exploreScreenKey], out.acked[exploreCancelledKey]
	held, heldSecond := readJournal(t, dir, screen), readJournal(t, dir, second)

	ec.completeAll()
	rc, err := New(ec.config(dir, nil))
	if err != nil {
		t.Fatalf("recovery boot failed after a crash at op %d: %v", k, err)
	}
	defer stopCoordinator(rc)
	rc.Register(explorerA)
	if !out.bDown {
		rc.Register(explorerB)
	}
	for key, id := range out.acked {
		if _, err := rc.Get(id); err != nil {
			t.Errorf("crash at op %d: acknowledged screen %s (%s) lost: %v", k, id, key, err)
		}
	}
	wantMerges := 0
	if screen != "" {
		if _, err := rc.Get(screen); err == nil {
			v := waitView(t, rc, screen, "the recovered screen to finish", func(v JobView) bool { return v.State.Terminal() })
			if v.State != service.StateDone || v.Completed != exploreScreen.Library {
				t.Errorf("crash at op %d: screen recovered into %s with %d/%d ligands (%s)",
					k, v.State, v.Completed, exploreScreen.Library, v.Error)
			} else if got, want := rankingJSON(t, v.Result.Ranking), rankingJSON(t, ref.Ranking); got != want ||
				v.Result.Evaluations != ref.Evaluations || v.Result.SimulatedSeconds != ref.SimulatedSeconds {
				t.Errorf("crash at op %d: recovered ranking differs from the one-node reference:\n got %s\nwant %s", k, got, want)
			}
			for _, id := range held.fenced {
				for _, sh := range v.Shards {
					if sh.ID == id && !sh.Moved {
						t.Errorf("crash at op %d: the journal holds chunk %s as fenced and recovery revived it", k, id)
					}
				}
			}
			if !held.terminal {
				wantMerges += exploreScreen.Library - len(held.merged)
			}
		}
	}
	if id := second; id != "" {
		if _, err := rc.Get(id); err == nil {
			want := service.StateDone
			if out.cancelAcked {
				want = service.StateCancelled
			}
			v := waitView(t, rc, id, "the second screen to finish", func(v JobView) bool { return v.State.Terminal() })
			if v.State != want {
				t.Errorf("crash at op %d: second screen (cancel acknowledged: %v) recovered into %s, want %s",
					k, out.cancelAcked, v.State, want)
			}
			if v.State == service.StateDone && !heldSecond.terminal {
				wantMerges += exploreCancelled.Library - len(heldSecond.merged)
			}
		}
	}
	if got := expositionCounter(t, rc, "metascreen_dist_ligands_merged_total"); got != wantMerges {
		t.Errorf("crash at op %d: recovery merged %d ligands, want the %d the journal did not hold", k, got, wantMerges)
	}
	after := ec.net.takeEpochs()
	for url, before := range sent {
		hi := uint64(0)
		for _, e := range before {
			hi = max(hi, e)
		}
		for _, e := range after[url] {
			if e < hi {
				t.Errorf("crash at op %d: %s was sent epoch %d after recovery, %d before the crash", k, url, e, hi)
				break
			}
		}
	}
}

func TestCoordinatorCrashPointExplorer(t *testing.T) {
	ref := exploreReference(t)
	// Recording runs: a clean pass-through fsim counts the workload's
	// mutating ops, twice, to prove crash@opK lands on the same boundary
	// every run.
	var total uint64
	var marks map[string]uint64
	for run := 0; run < 2; run++ {
		ec := newExplorerCluster(t)
		recorder := fsim.New(fsim.Plan{}, fsim.Config{Seed: coordExplorerSeed})
		dir := t.TempDir()
		c, err := New(ec.config(dir, recorder))
		if err != nil {
			t.Fatal(err)
		}
		out := runExploreWorkload(t, ec, c, recorder.MutatingOps)
		stopCoordinator(c)
		if len(out.acked) != 2 || !out.cancelAcked {
			t.Fatalf("clean run acknowledged %v (cancel %v), want both screens and the cancel", out.acked, out.cancelAcked)
		}
		// Compaction writes the snapshot as the next segment: a journal
		// still on its first segment never compacted.
		if _, err := os.Stat(filepath.Join(dir, "dist-journal", "seg-00000001.wal")); err == nil {
			t.Fatal("the workload never compacts the journal; lower the explorer's CompactBytes")
		}
		ops := recorder.MutatingOps()
		if run == 1 && ops != total {
			t.Fatalf("mutating-op counts differ between identical runs: %d vs %d", total, ops)
		}
		total, marks = ops, out.marks
	}
	if total < 100 {
		t.Fatalf("workload performs %d mutating ops; the explorer needs >= 100 crash points", total)
	}

	// Regression cases for acknowledgements that once ignored whether their
	// record landed: a power loss at the fsync of a screen's admission
	// record, or of a cancel's record, must not leave a 202 behind that
	// recovery forgets. A power loss at the fsync of a worker's death
	// record must not let its later revival be sent an epoch recovery does
	// not know, and so sends again lower. And one at the fsync of the
	// backup's assignment must not revive the race half-linked.
	for _, tc := range []struct {
		name string
		op   uint64
	}{
		{"unjournaled_submit", marks["submit"] + 2},
		{"unjournaled_second_submit", marks["submit-cancelled"] + 2},
		{"unjournaled_cancel", marks["cancel"] + 2},
		{"revival_after_unjournaled_death", marks["death"] + 2},
		{"unjournaled_backup", marks["backup"] + 2},
	} {
		t.Run(tc.name, func(t *testing.T) { exploreCrashPoint(t, tc.op, ref) })
	}

	stride := uint64(1)
	if testing.Short() {
		stride = (total + 24) / 25
	} else if total > 400 {
		stride = total / 400
	}
	t.Logf("exploring %d crash points (of %d mutating ops, stride %d)", (total+stride-1)/stride, total, stride)
	for k := uint64(1); k <= total; k += stride {
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) { exploreCrashPoint(t, k, ref) })
	}
}
