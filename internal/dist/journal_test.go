package dist

import (
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
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
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-journal")
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
	const id = "dscreen-000001"
	held := readJournal(t, dir, id)
	if len(held.fenced) != 1 || held.fenced[0] != "s1" || held.terminal {
		t.Fatalf("fixture holds fenced chunks %v (terminal %v), want only the stolen s1", held.fenced, held.terminal)
	}

	// Fakes that answer every chunk complete, with the entries the
	// fixture's workers produced.
	fn := &fakeNet{hosts: map[string]http.Handler{}, down: map[string]bool{}, epochs: map[string][]uint64{}}
	urls := []string{"http://wa.test", "http://wb.test", "http://wc.test"}
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
	}
	c := startCoordinator(t, Config{DataDir: dir, Transport: fn, HeartbeatTimeout: time.Hour})
	for _, u := range urls {
		if _, err := c.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	final := waitJob(t, c, id, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
	ref := exploreReference()
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
