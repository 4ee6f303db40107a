package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

// The surface a coordinator inherits from the node's job model, with no
// code of its own: /partial with a cursor and a held wait, idempotent
// resubmits while draining, the queue bound, and the node's journal
// options.

// fourLigands is a screen one chunk per fake worker covers.
var fourLigands = service.ScreenRequest{Dataset: "2BSM", Library: 4, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7}

// getJSON GETs url from h into out and returns the status.
func getJSON(t *testing.T, h http.Handler, url string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code
}

// TestCoordinatorPartialCursorAndHeldWait: a coordinator serves its
// merged ligands on /partial like a node serves its docked ones — a
// cursored request returns the entries past the cursor, and one with a
// wait is held until the screen is complete.
func TestCoordinatorPartialCursorAndHeldWait(t *testing.T) {
	var mu sync.Mutex
	released := false
	sw := startScriptWorker(t)
	sw.script(func(sw *scriptWorker) {
		sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
			mu.Lock()
			defer mu.Unlock()
			pv := service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Total: len(sh.ligands)}
			if released {
				pv.State, pv.Completed = service.StateDone, len(sh.ligands)
				for _, n := range sh.ligands {
					pv.Entries = append(pv.Entries, exploreEntry(n))
				}
			}
			return pv
		}
	})
	c := startCoordinator(t, Config{HeartbeatTimeout: time.Hour})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	v, err := c.Submit(fourLigands)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	var first service.PartialView
	if code := getJSON(t, h, "/v1/screens/"+v.ID+"/partial?since=", &first); code != http.StatusOK || first.Completed != 0 || first.Cursor == "" {
		t.Fatalf("first cursored partial: status %d, %+v", code, first)
	}

	held := make(chan service.PartialView)
	go func() {
		var pv service.PartialView
		getJSON(t, h, "/v1/screens/"+v.ID+"/partial?since="+first.Cursor+"&wait=8s", &pv)
		held <- pv
	}()
	select {
	case pv := <-held:
		t.Fatalf("held partial answered before any ligand merged: %+v", pv)
	case <-time.After(100 * time.Millisecond):
	}
	mu.Lock()
	released = true
	mu.Unlock()
	start := time.Now()
	pv := <-held
	if time.Since(start) > 5*time.Second || len(pv.Entries) != fourLigands.Library || pv.Cursor == first.Cursor {
		t.Fatalf("held partial after the merge: %v, %d entries, cursor %q", time.Since(start), len(pv.Entries), pv.Cursor)
	}
	var rest service.PartialView
	getJSON(t, h, "/v1/screens/"+v.ID+"/partial?since="+pv.Cursor, &rest)
	if len(rest.Entries) != 0 {
		t.Errorf("%d entries past the last cursor, want none", len(rest.Entries))
	}
}

// TestCoordinatorResubmitWhileDraining: a retried submission under an
// admitted key answers the original screen even while the coordinator
// drains; a new key is refused.
func TestCoordinatorResubmitWhileDraining(t *testing.T) {
	c := startCoordinator(t, Config{})
	v, _, err := c.SubmitIdem(fourLigands, "retry-me")
	if err != nil {
		t.Fatal(err)
	}
	c.Drain()
	again, existing, err := c.SubmitIdem(fourLigands, "retry-me")
	if err != nil || !existing || again.ID != v.ID {
		t.Fatalf("resubmit while draining: existing=%v id=%q err=%v, want the original %s", existing, again.ID, err, v.ID)
	}
	if _, _, err := c.SubmitIdem(fourLigands, "fresh"); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("new submission while draining: %v, want ErrDraining", err)
	}
}

// TestCoordinatorQueueBound: with every supervision slot taken and the
// queue full, a submission is shed with 429 and a Retry-After.
func TestCoordinatorQueueBound(t *testing.T) {
	c := startCoordinator(t, Config{Service: service.Config{Workers: 1, QueueDepth: 1}})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	body, _ := json.Marshal(fourLigands)
	post := func() *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/screens", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// No worker: the first screen is supervised forever, the second waits.
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitCond(t, "the first screen to leave the queue", func() bool { return c.Stats().QueueDepth == 0 })
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit past the queue bound: status %d, Retry-After %q; want 429 + Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestCoordinatorHonoursFsyncInterval: the coordinator's journal runs
// under the service's fsync options. Under -fsync interval with an hour's
// interval, membership records are written and not synced.
func TestCoordinatorHonoursFsyncInterval(t *testing.T) {
	rec := fsim.New(fsim.Plan{}, fsim.Config{Seed: 3})
	c := startCoordinator(t, Config{
		DataDir: t.TempDir(),
		Service: service.Config{FS: rec, Fsync: wal.SyncInterval, FsyncInterval: time.Hour},
	})
	before := rec.MutatingOps()
	for i := 0; i < 3; i++ {
		if _, err := c.Register("http://w" + strconv.Itoa(i) + ":1"); err != nil {
			t.Fatal(err)
		}
		// Past the default interval: a journal that ignored the option
		// would sync here.
		time.Sleep(150 * time.Millisecond)
	}
	if got := rec.MutatingOps() - before; got != 3 {
		t.Fatalf("3 membership records cost %d mutating ops, want 3 writes and no fsync", got)
	}
}
