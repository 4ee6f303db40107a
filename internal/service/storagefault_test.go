package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/wal"
)

// TestCheckpointCorruptionFallback: a damaged last checkpoint record must
// never stop a job from finishing. wal.Open truncates a torn or
// bit-flipped tail (preserving its bytes under journal/quarantine/ for
// post-mortem), a record that never reached the disk is simply absent,
// and either way the job resumes from the record before — re-docking the
// ligands after it — with the reference ranking.
func TestCheckpointCorruptionFallback(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages the segment's last frame, which starts at last.
		mutate func(seg []byte, last int) []byte
		torn   bool
	}{
		{"truncated", func(b []byte, last int) []byte { return b[:last+(len(b)-last)/2] }, true},
		{"bit_flipped", func(b []byte, last int) []byte {
			c := append([]byte(nil), b...)
			c[last+(len(c)-last)/2] ^= 0x10
			return c
		}, true},
		{"zero_length", func(b []byte, last int) []byte { return b[:last] }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id := crashAfterCheckpoints(t, dir, 2)
			seg := filepath.Join(dir, "journal", "seg-00000001.wal")
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			recs, valid := wal.ScanRecords(data)
			var ev jobEvent
			if len(recs) == 0 || json.Unmarshal(recs[len(recs)-1], &ev) != nil || ev.Type != evCheckpoint {
				t.Fatalf("the crashed journal does not end with a checkpoint record: %+v", ev)
			}
			last := valid - len(wal.AppendFrame(nil, recs[len(recs)-1]))
			if err := os.WriteFile(seg, tc.mutate(data, last), 0o644); err != nil {
				t.Fatal(err)
			}

			s := resumeAndCheck(t, durableConfig(dir), id)
			if got := s.Recovery().TruncatedBytes > 0; got != tc.torn {
				t.Errorf("recovery truncated a tail: %v, want %v", got, tc.torn)
			}
			if tc.torn {
				if _, err := os.Stat(filepath.Join(dir, "journal", "quarantine", "seg-00000001.wal.tail")); err != nil {
					t.Errorf("damaged tail not preserved under journal/quarantine/: %v", err)
				}
			}
		})
	}
}

// TestStorageFullDegradedMode: when the disk fills, the service degrades
// to read-only — submissions get 507 + Retry-After while ranking, list
// and metrics reads keep being served — and recovers in place (no
// restart) once space frees, re-enabling journaling. A restart over the
// same dir must still know every job that was acknowledged with a 202.
func TestStorageFullDegradedMode(t *testing.T) {
	saved := wal.StorageProbeInterval
	wal.StorageProbeInterval = 0
	defer func() { wal.StorageProbeInterval = saved }()

	dir := t.TempDir()
	// Roomy enough to boot, admit a few jobs and (after the operator
	// frees space) run one more to completion — compaction, checkpoints
	// and all — yet small enough that the submit loop fills it.
	plan, err := fsim.ParsePlan("*:enospc@131072")
	if err != nil {
		t.Fatal(err)
	}
	faulty := fsim.New(plan, fsim.Config{Seed: 99})
	cfg := durableConfig(dir)
	cfg.FS = faulty
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(key string) (JobView, int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/screens", jsonBody(t, recoveryRequest))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		retryAfter := resp.Header.Get("Retry-After")
		var v JobView
		if resp.StatusCode == http.StatusAccepted {
			decodeJSON(t, resp, &v)
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return v, resp.StatusCode, retryAfter
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Submit until the simulated disk fills. Every 202 is an acknowledged,
	// journaled admission; the first refusal must be a 507 with advice on
	// when to retry.
	var ackedIDs []string
	var sawFull bool
	var retryAfter string
	for i := 0; i < 200; i++ {
		v, code, ra := post(fmt.Sprintf("full-%d", i))
		if code == http.StatusAccepted {
			ackedIDs = append(ackedIDs, v.ID)
			waitFor(t, func() bool {
				got, err := s.Get(v.ID)
				return err == nil && got.State.Terminal()
			})
			continue
		}
		sawFull, retryAfter = true, ra
		if code != http.StatusInsufficientStorage {
			t.Fatalf("submit %d: status %d, want 507", i, code)
		}
		break
	}
	if !sawFull {
		t.Fatal("disk never filled: no 507 observed")
	}
	if retryAfter == "" {
		t.Error("507 response missing Retry-After header")
	}
	if len(ackedIDs) == 0 {
		t.Fatal("no job was acknowledged before the disk filled")
	}

	// Degraded means read-only, not down: rankings, listings, traces and
	// metrics keep flowing.
	if code, _ := get("/v1/screens"); code != http.StatusOK {
		t.Errorf("GET /v1/screens while degraded: %d, want 200", code)
	}
	if code, _ := get("/v1/screens/" + ackedIDs[0]); code != http.StatusOK {
		t.Errorf("GET job while degraded: %d, want 200", code)
	}
	if code, _ := get("/v1/screens/" + ackedIDs[0] + "/trace"); code != http.StatusOK {
		t.Errorf("GET trace while degraded: %d, want 200", code)
	}
	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics while degraded: %d, want 200", code)
	}
	if !strings.Contains(metrics, "metascreen_storage_degraded 1") {
		t.Errorf("metrics do not report metascreen_storage_degraded 1")
	}
	st := s.Stats()
	if !st.StorageDegraded || st.StorageReason != "disk_full" {
		t.Errorf("Stats() = degraded=%v reason=%q, want degraded with reason disk_full", st.StorageDegraded, st.StorageReason)
	}
	if snap := s.DebugSnapshot(); !snap.Storage.Degraded {
		t.Errorf("debug snapshot does not flag storage degradation")
	}

	// Free the disk: the next submission probes, recovers the journal in
	// place and is admitted — no restart needed.
	faulty.FreeSpace()
	v, code2, _ := post("after-recovery")
	if code2 != http.StatusAccepted {
		t.Fatalf("submit after FreeSpace: status %d, want 202", code2)
	}
	ackedIDs = append(ackedIDs, v.ID)
	waitFor(t, func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State.Terminal()
	})
	st = s.Stats()
	if st.StorageDegraded {
		t.Error("service still degraded after successful recovery")
	}
	_, body := get("/metrics")
	if !strings.Contains(body, "metascreen_storage_degraded 0") {
		t.Error("metrics still report storage degraded after recovery")
	}
	if strings.Contains(body, "metascreen_storage_recoveries_total 0\n") {
		t.Error("storage_recoveries_total = 0 after in-place recovery")
	}

	// Restart over the same dir with a healthy disk: every 202 survived.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	for _, id := range ackedIDs {
		if _, err := s2.Get(id); err != nil {
			t.Errorf("acknowledged job %s lost across restart: %v", id, err)
		}
	}
}

// TestCancelRefusedWhileStorageDegraded: a cancel is acknowledged only
// once its record is journaled, like a submit. With the journal disk full,
// DELETE on a running job answers 507 + Retry-After and the job carries
// on; a restart over the same dir still holds the job, which runs to
// completion instead of coming back cancelled or not at all.
func TestCancelRefusedWhileStorageDegraded(t *testing.T) {
	dir := t.TempDir()
	plan, err := fsim.ParsePlan("*:enospc@8192")
	if err != nil {
		t.Fatal(err)
	}
	faulty := fsim.New(plan, fsim.Config{Seed: 5})
	cfg := durableConfig(dir)
	cfg.FS = faulty
	run, release := blockingRunner()
	defer release()
	cfg.Runner = run
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	v, err := s.Submit(recoveryRequest)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { got, _ := s.Get(v.ID); return got.State == StateRunning })
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatal("disk never filled")
		}
		if _, err := s.Submit(recoveryRequest); errors.Is(err, ErrStorageFull) {
			break
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/screens/"+v.ID, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("DELETE with a full journal: status %d, Retry-After %q; want 507 + Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got, _ := s.Get(v.ID); got.State != StateRunning {
		t.Fatalf("a refused cancel ended the job: %s", got.State)
	}

	// Stop without waiting for the job: the drain interrupts it.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(expired)
	rs, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Shutdown(context.Background())
	waitFor(t, func() bool { got, err := rs.Get(v.ID); return err == nil && got.State.Terminal() })
	if got, _ := rs.Get(v.ID); got.State != StateDone {
		t.Fatalf("job after restart: %s (%s), want done", got.State, got.Error)
	}
}
