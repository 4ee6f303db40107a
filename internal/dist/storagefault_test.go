package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

// TestCoordinatorStorageFull: when the coordinator's disk fills, it
// degrades to read-only exactly as a node does — submissions and cancels
// get 507 + Retry-After while listings, rankings, metrics and the debug
// snapshot keep serving — and it recovers in place (no restart) once space
// frees. A restart over the same dir knows every screen it acknowledged.
func TestCoordinatorStorageFull(t *testing.T) {
	saved := wal.StorageProbeInterval
	wal.StorageProbeInterval = 0
	defer func() { wal.StorageProbeInterval = saved }()

	// One fake worker that finishes every shard on its first poll, except
	// those of the first screen, which stays running.
	sw := startScriptWorker(t)
	sw.script(func(sw *scriptWorker) {
		sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
			pv := service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Total: len(sh.ligands)}
			if strings.HasPrefix(sh.key, "job-000001/") {
				return pv
			}
			pv.State, pv.Completed = service.StateDone, len(sh.ligands)
			for _, n := range sh.ligands {
				pv.Entries = append(pv.Entries, exploreEntry(n))
			}
			return pv
		}
	})
	dir := t.TempDir()
	plan, err := fsim.ParsePlan("*:enospc@32768")
	if err != nil {
		t.Fatal(err)
	}
	faulty := fsim.New(plan, fsim.Config{Seed: 99})
	c := startCoordinator(t, Config{Service: service.Config{FS: faulty}, DataDir: dir, HeartbeatTimeout: time.Hour})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	screen := service.ScreenRequest{Dataset: "2BSM", Library: 4, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7}
	do := func(method, path, key string) (int, http.Header, string) {
		t.Helper()
		var body []byte
		if method == http.MethodPost {
			body, _ = json.Marshal(screen)
		}
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(b)
	}
	submit := func(key string, until func(JobView) bool) (string, int, http.Header, string) {
		t.Helper()
		code, h, body := do(http.MethodPost, "/v1/screens", key)
		var v JobView
		if code == http.StatusAccepted {
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				t.Fatal(err)
			}
			waitJob(t, c, v.ID, 30*time.Second, until)
		}
		return v.ID, code, h, body
	}
	finished := func(v JobView) bool { return v.State.Terminal() }
	held, code, _, _ := submit("held", func(v JobView) bool { return v.State == service.StateRunning })
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}

	// Submit until the disk fills: every 202 is journaled; the first
	// refusal is a 507 that says when to come back.
	var acked []string
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatal("disk never filled: no 507 observed")
		}
		id, code, h, body := submit(fmt.Sprintf("full-%d", i), finished)
		if code == http.StatusAccepted {
			acked = append(acked, id)
			continue
		}
		if code != http.StatusInsufficientStorage || h.Get("Retry-After") == "" || !strings.Contains(body, `"storage_full"`) {
			t.Fatalf("submit %d: status %d, Retry-After %q, body %s; want 507 + Retry-After, reason storage_full",
				i, code, h.Get("Retry-After"), body)
		}
		break
	}
	if len(acked) == 0 {
		t.Fatal("no screen was acknowledged before the disk filled")
	}
	// Degraded means read-only, not down.
	for _, path := range []string{"/v1/screens", "/v1/screens/" + acked[0], "/v1/workers", "/metrics", "/healthz", "/readyz"} {
		if code, _, _ := do(http.MethodGet, path, ""); code != http.StatusOK {
			t.Errorf("GET %s while degraded: %d, want 200", path, code)
		}
	}
	if st := c.Stats(); !st.StorageDegraded || st.StorageReason != "disk_full" {
		t.Errorf("Stats() = %+v, want storage degraded with reason disk_full", st)
	}
	if _, _, body := do(http.MethodGet, "/debug/snapshot", ""); !strings.Contains(body, `"degraded": true`) {
		t.Errorf("/debug/snapshot does not flag storage degradation: %s", body)
	}
	// A cancel is acknowledged only once journaled, too.
	if code, h, _ := do(http.MethodDelete, "/v1/screens/"+held, ""); code != http.StatusInsufficientStorage || h.Get("Retry-After") == "" {
		t.Errorf("DELETE while degraded: status %d, Retry-After %q; want 507 + Retry-After", code, h.Get("Retry-After"))
	}
	if v, _ := c.Get(held); v.State != service.StateRunning {
		t.Errorf("a refused cancel ended the screen: %s", v.State)
	}

	// Free the disk: the next submission probes, recovers the journal in
	// place and is admitted; the cancel goes through.
	faulty.FreeSpace()
	id, code, _, body := submit("after-recovery", finished)
	if code != http.StatusAccepted {
		t.Fatalf("submit after FreeSpace: status %d (%s), want 202", code, body)
	}
	acked = append(acked, id)
	if c.Stats().StorageDegraded {
		t.Error("coordinator still degraded after recovering")
	}
	if code, _, _ := do(http.MethodDelete, "/v1/screens/"+held, ""); code != http.StatusAccepted {
		t.Errorf("DELETE after recovering: status %d, want 202", code)
	}
	waitJob(t, c, held, 30*time.Second, finished)

	// Restart over the same dir with a healthy disk: every 202 survived.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c2 := startCoordinator(t, Config{DataDir: dir})
	for _, id := range acked {
		if v, err := c2.Get(id); err != nil || v.State != service.StateDone {
			t.Errorf("acknowledged screen %s after restart: %s (%v), want done", id, v.State, err)
		}
	}
	if v, err := c2.Get(held); err != nil || v.State != service.StateCancelled {
		t.Errorf("the cancelled screen after restart: %s (%v), want cancelled", v.State, err)
	}
}
