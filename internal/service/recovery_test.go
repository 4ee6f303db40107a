package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/surface"
)

// The crash-recovery contract, end to end: a service killed mid-screen
// and rebooted over the same data dir resumes the interrupted job from
// its checkpoint, re-docks only the unfinished ligands, and produces a
// final ranking byte-identical to an uninterrupted run.

// jsonBody marshals a request body.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// decodeJSON decodes a response body.
func decodeJSON(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// recoveryRequest is the screen used across these tests: small enough for
// test time, large enough to crash part-way through.
var recoveryRequest = ScreenRequest{
	Dataset: "2BSM", Library: 6, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7,
}

// durableConfig is the one-worker, checkpoint-per-ligand configuration the
// recovery tests run under (deterministic crash points need ScreenWorkers
// = 1).
func durableConfig(dir string) Config {
	return Config{Workers: 1, ScreenWorkers: 1, DataDir: dir, CheckpointEvery: 1, MaxAttempts: 1}
}

// referenceResult runs recoveryRequest through the library API — the
// ranking every (resumed or not) service run must reproduce exactly.
func referenceResult(t *testing.T) *core.ScreenResult {
	t.Helper()
	return referenceFor(t, recoveryRequest)
}

// referenceFor runs a host-backend request through the library API, with
// a freshly prepared receptor.
func referenceFor(t *testing.T, req ScreenRequest) *core.ScreenResult {
	t.Helper()
	req = req.withDefaults()
	ds, err := core.DatasetByName(req.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	algf := func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewPaper(req.Metaheuristic, req.Scale)
	}
	res, err := core.ScreenCtx(context.Background(), ds.Receptor,
		core.SyntheticLibrary(req.Library),
		surface.Options{MaxSpots: req.Spots}, forcefield.Options{},
		algf, core.HostBackendFactory(core.HostConfig{Real: true}), req.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesReference compares a service result against the library
// run field by field.
func assertMatchesReference(t *testing.T, got *ResultView, want *core.ScreenResult) {
	t.Helper()
	if got == nil {
		t.Fatal("job has no result")
	}
	if len(got.Ranking) != len(want.Ranking) {
		t.Fatalf("ranking has %d entries, want %d", len(got.Ranking), len(want.Ranking))
	}
	for i, w := range want.Ranking {
		g := got.Ranking[i]
		if g.Ligand != w.Ligand.Name || g.Score != w.Result.Best.Score || g.Spot != w.Result.Best.Spot {
			t.Errorf("rank %d: got %s %v spot %d, want %s %v spot %d", i+1,
				g.Ligand, g.Score, g.Spot, w.Ligand.Name, w.Result.Best.Score, w.Result.Best.Spot)
		}
	}
	if got.Evaluations != want.Evaluations || got.SimulatedSeconds != want.SimulatedSeconds {
		t.Errorf("work totals (%d, %g) differ from reference (%d, %g)",
			got.Evaluations, got.SimulatedSeconds, want.Evaluations, want.SimulatedSeconds)
	}
}

// crashForTest simulates kill -9 for the crash-recovery tests: from this
// point nothing further reaches the journal or triggers terminal side
// effects — exactly as if the process died — while the goroutines are
// still wound down so the test can reopen the data dir race-free. The
// journal bytes already written (synced per policy) are what the next boot
// sees.
func (s *Service) crashForTest() {
	s.mu.Lock()
	s.crashed = true
	s.journal = nil // drop without Close: no final sync, like SIGKILL
	s.startDrainLocked()
	s.queue.Close()
	s.ctrl.Close()
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateRunning && j.cancel != nil {
			j.cancel(nil)
		}
	}
	s.mu.Unlock()
	s.workers.Wait()
}

// crashAfterCheckpoints runs recoveryRequest on a fresh durable service
// and simulates process death once exactly n ligands are checkpointed,
// returning the interrupted job's ID.
func crashAfterCheckpoints(t *testing.T, dir string, n int) string {
	t.Helper()
	return crashAt(t, durableConfig(dir), n)
}

// crashAt is crashAfterCheckpoints under cfg: the crash lands right after
// the checkpoint record that covers the n-th completed ligand.
func crashAt(t *testing.T, cfg Config, n int) string {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armed := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// The hook holds the screen at the n-th checkpoint so the "kill"
	// always lands at the same mid-screen point.
	s.checkpointHook = func(id string, newly int) {
		if newly == n {
			once.Do(func() { close(armed) })
			<-release
		}
	}
	v, err := s.Submit(recoveryRequest)
	if err != nil {
		t.Fatal(err)
	}
	<-armed
	dead := make(chan struct{})
	go func() { s.crashForTest(); close(dead) }()
	// crashForTest cancels the running screen before it waits for the
	// workers; release the hook only after that cancellation is visible.
	waitFor(t, func() bool { return s.Stats().Draining })
	close(release)
	<-dead
	return v.ID
}

func TestCrashRecoveryResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	want := referenceResult(t)
	id := crashAfterCheckpoints(t, dir, 2)

	// The dead process journaled two checkpoint records of one ligand each
	// and no terminal record.
	records := journaledCheckpoints(t, dir, id)
	if len(records) != 2 || len(records[0]) != 1 || len(records[1]) != 1 {
		t.Fatalf("journal holds checkpoint records %v, want two of one ligand each", records)
	}

	// Boot a fresh service over the same data dir: the job comes back
	// queued and re-runs, docking only the 4 ligands after the last record.
	s2 := newTestService(t, durableConfig(dir), nil)
	rec := s2.Recovery()
	if rec.RecoveredJobs != 1 || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery stats %+v, want 1 recovered job", rec)
	}
	v := waitDone(t, s2, id)
	assertMatchesReference(t, v.Result, want)
	if got, want := dockedLigands(t, s2, id), unrecorded(recoveryRequest.Library, records); !slices.Equal(got, want) {
		t.Errorf("resume re-docked %v, want exactly the ligands after the last checkpoint record %v", got, want)
	}
	if v.Attempts < 2 {
		t.Errorf("attempts = %d; the resumed execution should count past the crashed one", v.Attempts)
	}
	// Checkpoints live in the journal: nothing else was written.
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Errorf("the service created a checkpoints/ directory: %v", err)
	}
}

// TestRecoveryPreservesTerminalJobs: a third boot after the job finished
// replays it as done — with its ranking — and re-enqueues nothing.
func TestRecoveryPreservesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	want := referenceResult(t)
	id := crashAfterCheckpoints(t, dir, 2)

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		v, err := s2.Get(id)
		return err == nil && v.State.Terminal()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s3, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s3.Shutdown(ctx)
	}()
	if rec := s3.Recovery(); rec.RecoveredJobs != 0 {
		t.Errorf("finished job re-enqueued: %+v", rec)
	}
	v, err := s3.Get(id)
	if err != nil || v.State != StateDone {
		t.Fatalf("replayed job: %+v (%v)", v, err)
	}
	assertMatchesReference(t, v.Result, want)
}

// TestIdempotencyAcrossRestart: a duplicate Idempotency-Key submission
// returns the original job — also after the service restarts from its
// journal, and over HTTP (202 for the first admission, 200 for replays).
func TestIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Runner = RunFunc(func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		return stubResult(), nil
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.Handler())
	post := func(key string) (JobView, int) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/screens",
			jsonBody(t, ScreenRequest{Seed: 3}))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		decodeJSON(t, resp, &v)
		return v, resp.StatusCode
	}

	first, code := post("screen-42")
	if code != http.StatusAccepted || first.IdempotencyKey != "screen-42" {
		t.Fatalf("first submit: %d %+v", code, first)
	}
	dup, code := post("screen-42")
	if code != http.StatusOK || dup.ID != first.ID {
		t.Fatalf("duplicate submit: %d id=%s, want 200 with id %s", code, dup.ID, first.ID)
	}
	waitFor(t, func() bool {
		v, err := s.Get(first.ID)
		return err == nil && v.State == StateDone
	})
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// After a restart the key still maps to the original (now finished)
	// job: a client retrying across the outage cannot double-submit.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	v, existing, err := s2.SubmitIdem(ScreenRequest{Seed: 3}, "screen-42")
	if err != nil || !existing || v.ID != first.ID {
		t.Fatalf("post-restart duplicate: existing=%v id=%s err=%v, want the original %s",
			existing, v.ID, err, first.ID)
	}
	if v.State != StateDone || v.Result == nil {
		t.Errorf("replayed original lost its outcome: %+v", v)
	}
	// A different key is a genuinely new job.
	v2, existing, err := s2.SubmitIdem(ScreenRequest{Seed: 3}, "screen-43")
	if err != nil || existing || v2.ID == first.ID {
		t.Errorf("fresh key reused a job: existing=%v id=%s err=%v", existing, v2.ID, err)
	}
}
