package dist

import (
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/service"
)

// TestParentJournalReplays: testdata/parent-journal is a data dir written
// by the coordinator before chunk self-scheduling, when it split a screen
// by name hash and repaired the split. It holds exploreScreen mid-run on
// workers wa, wb and wc: wb's shard s1 stolen (its move record plus the
// thief's assignment s3 on wa) and s4 on wc, a hedge twin racing s3
// (hedge_of). Replayed under today's pool, the move still fences s1, the
// twins still race, and the screen finishes with the one-node ranking,
// merging exactly the ligands the journal did not hold.
func TestParentJournalReplays(t *testing.T) {
	dir := copyFixture(t, "parent-journal")
	const id = "dscreen-000001"
	held := readJournal(t, dir, id)
	if len(held.fenced) != 1 || held.fenced[0] != "s1" || held.terminal {
		t.Fatalf("fixture holds fenced chunks %v (terminal %v), want only the stolen s1", held.fenced, held.terminal)
	}

	urls := []string{"http://wa.test", "http://wb.test", "http://wc.test"}
	fn, _ := completingWorkers(t, urls)
	c := startCoordinator(t, Config{DataDir: dir, Transport: fn, HeartbeatTimeout: time.Hour})
	for _, u := range urls {
		if _, err := c.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	final := waitJob(t, c, id, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
	ref := exploreReference(t)
	if final.State != service.StateDone || rankingJSON(t, final.Result.Ranking) != rankingJSON(t, ref.Ranking) ||
		final.Result.Evaluations != ref.Evaluations || final.Result.SimulatedSeconds != ref.SimulatedSeconds {
		t.Fatalf("replayed screen ended %s (%s) with a ranking other than the one-node one", final.State, final.Error)
	}
	if got, want := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"), exploreScreen.Library-len(held.merged); got != want {
		t.Errorf("ligands_merged_total = %d, want the %d the journal did not hold", got, want)
	}
	lost := 0
	for _, sh := range final.Shards {
		switch sh.ID {
		case "s1":
			if !sh.Moved {
				t.Error("the stolen shard s1 was revived")
			}
		case "s3", "s4":
			if sh.Moved {
				lost++
			}
		}
	}
	if lost != 1 {
		t.Errorf("%d of the twins s3, s4 fenced, want the race's one loser", lost)
	}
}

// TestParentCoordinatorReplays: testdata/parent-coordinator is a data dir
// written by the coordinator before it shared the node's job model. It
// holds exploreScreen mid-screen on wa and wb with three ligands merged,
// and exploreCancelled dispatched with a journaled cancel no supervisor
// acted on. Replayed, both screens keep their IDs and idempotency keys,
// the cancel is honoured, and the screen finishes with the one-node
// ranking without merging, or handing out in a new chunk, any ligand the
// journal held as merged.
func TestParentCoordinatorReplays(t *testing.T) {
	dir := copyFixture(t, "parent-coordinator")
	const screen, cancelled = "dscreen-000001", "dscreen-000002"
	held := readJournal(t, dir, screen)
	if len(held.merged) != 3 || held.terminal || !readJournal(t, dir, cancelled).cancel {
		t.Fatalf("fixture holds %d merged ligands (terminal %v), want 3 and a pending cancel", len(held.merged), held.terminal)
	}
	urls := []string{"http://wa.test", "http://wb.test"}
	fn, workers := completingWorkers(t, urls)
	c := startCoordinator(t, Config{DataDir: dir, Transport: fn, HeartbeatTimeout: time.Hour})
	for _, u := range urls {
		if _, err := c.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	for key, want := range map[string]string{"fixture-screen": screen, "fixture-cancelled": cancelled} {
		if v, existing, err := c.SubmitIdem(exploreScreen, key); err != nil || !existing || v.ID != want {
			t.Errorf("key %s: existing=%v id=%q err=%v, want %s", key, existing, v.ID, err, want)
		}
	}
	if v := waitJob(t, c, cancelled, 30*time.Second, func(v JobView) bool { return v.State.Terminal() }); v.State != service.StateCancelled {
		t.Errorf("the screen with a pending cancel ended %s", v.State)
	}
	final := waitJob(t, c, screen, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
	ref := exploreReference(t)
	if final.State != service.StateDone || rankingJSON(t, final.Result.Ranking) != rankingJSON(t, ref.Ranking) ||
		final.Result.Evaluations != ref.Evaluations || final.Result.SimulatedSeconds != ref.SimulatedSeconds {
		t.Fatalf("replayed screen ended %s (%s) with a ranking other than the one-node one", final.State, final.Error)
	}
	if got, want := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"), exploreScreen.Library-len(held.merged); got != want {
		t.Errorf("ligands_merged_total = %d, want the %d the journal did not hold", got, want)
	}
	for _, sw := range workers {
		sw.mu.Lock()
		for _, sh := range sw.shards {
			chunk := strings.TrimPrefix(sh.key, screen+"/")
			if n, _ := strconv.Atoi(strings.TrimPrefix(chunk, "s")); chunk == sh.key || n < 4 {
				continue // another screen's, or a replayed chunk re-dispatched under its key
			}
			for _, l := range sh.ligands {
				if held.merged[l] {
					t.Errorf("merged ligand %s handed out again in chunk %s", l, chunk)
				}
			}
		}
		sw.mu.Unlock()
	}
}

// copyFixture copies testdata/<name> into a fresh data dir.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, path[len(src):])
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// completingWorkers are fakes under the given URLs that answer every
// chunk complete, with the entries the fixtures' workers produced.
func completingWorkers(t *testing.T, urls []string) (*fakeNet, []*scriptWorker) {
	fn := &fakeNet{hosts: map[string]http.Handler{}, down: map[string]bool{}, epochs: map[string][]uint64{}}
	var out []*scriptWorker
	for _, u := range urls {
		sw := startScriptWorker(t)
		sw.script(func(sw *scriptWorker) {
			sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
				pv := service.PartialView{ID: r.PathValue("id"), State: service.StateDone, Completed: len(sh.ligands), Total: len(sh.ligands)}
				for _, n := range sh.ligands {
					pv.Entries = append(pv.Entries, exploreEntry(n))
				}
				return pv
			}
		})
		fn.hosts[u] = sw.srv.Config.Handler
		out = append(out, sw)
	}
	return fn, out
}
