package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/surface"
)

// newTestService builds a service whose runner is stub (nil keeps the
// local one).
func newTestService(t *testing.T, cfg Config, stub RunFunc) *Service {
	t.Helper()
	if stub != nil {
		cfg.Runner = stub
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestNewRejectsNegativeConfig: zero means a field's default, negative is
// an error naming the field and its value, returned before the journal
// directory is touched.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for _, c := range []struct {
		want string
		cfg  Config
	}{
		{"Workers -1", Config{Workers: -1}},
		{"QueueDepth -5", Config{QueueDepth: -5}},
		{"ScreenWorkers -2", Config{ScreenWorkers: -2}},
		{"MaxAttempts -1", Config{MaxAttempts: -1}},
		{"RetryBaseDelay -1s", Config{RetryBaseDelay: -time.Second}},
		{"FsyncInterval -1ms", Config{FsyncInterval: -time.Millisecond}},
		{"CheckpointEvery -3", Config{CheckpointEvery: -3}},
		{"CompactBytes -1", Config{CompactBytes: -1}},
		{"Admission.TargetLatency -1s", Config{Admission: admission.Config{TargetLatency: -time.Second}}},
		{"Admission.BreakerThreshold -2", Config{Admission: admission.Config{BreakerThreshold: -2}}},
	} {
		dir := t.TempDir()
		c.cfg.DataDir = dir
		s, err := New(c.cfg)
		if err == nil {
			s.Shutdown(context.Background())
			t.Errorf("%s accepted", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name it", c.want, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: data dir written before the config was checked", c.want)
		}
	}
}

// blockingRunner returns a runner that blocks until released (or its job
// is cancelled), plus the release function.
func blockingRunner() (RunFunc, func()) {
	release := make(chan struct{})
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		select {
		case <-release:
			return stubResult(), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return run, func() { close(release) }
}

// stubResult is a minimal well-formed screen outcome.
func stubResult() *core.ScreenResult {
	lib := core.SyntheticLibrary(1)
	return &core.ScreenResult{
		Ranking:          []core.ScreenEntry{{Ligand: lib[0], Result: &core.Result{Evaluations: 42}}},
		SimulatedSeconds: 1.5,
		Evaluations:      42,
	}
}

// doJSON issues a request against the test server and decodes the reply.
func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollState polls a job until it reaches a state for which done returns
// true, failing the test after a deadline.
func pollState(t *testing.T, client *http.Client, base, id string, done func(JobState) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := doJSON(t, client, "GET", base+"/v1/screens/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("GET job: status %d", code)
		}
		if done(v.State) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached wanted state", id)
	return JobView{}
}

// TestSubmitPollResult drives the happy path end to end through the real
// engine and checks the service ranking is byte-identical to the same
// screen run through the library API — the service's determinism
// contract.
func TestSubmitPollResult(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, ScreenWorkers: 2}, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	req := ScreenRequest{Dataset: "2BSM", Library: 4, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7}
	var submitted JobView
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if submitted.ID == "" || submitted.State != StateQueued {
		t.Fatalf("unexpected submit view: %+v", submitted)
	}

	v := pollState(t, c, srv.URL, submitted.ID, JobState.Terminal)
	if v.State != StateDone {
		t.Fatalf("job finished as %s (%s)", v.State, v.Error)
	}
	if v.Result == nil || len(v.Result.Ranking) != 4 {
		t.Fatalf("bad result: %+v", v.Result)
	}
	if v.Result.Evaluations <= 0 {
		t.Error("no evaluation accounting")
	}

	// Same screen through the library API.
	ds, _ := core.DatasetByName("2BSM")
	algf := func() (metaheuristic.Algorithm, error) { return metaheuristic.NewPaper("M3", 0.02) }
	direct, err := core.ScreenCtx(context.Background(), ds.Receptor, core.SyntheticLibrary(4),
		surface.Options{MaxSpots: 2}, forcefield.Options{},
		algf, core.HostBackendFactory(core.HostConfig{Real: true}), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Ranking) != len(v.Result.Ranking) {
		t.Fatalf("library %d entries, service %d", len(direct.Ranking), len(v.Result.Ranking))
	}
	for i, e := range direct.Ranking {
		got := v.Result.Ranking[i]
		if got.Ligand != e.Ligand.Name || got.Score != e.Result.Best.Score || got.Spot != e.Result.Best.Spot {
			t.Errorf("rank %d: service %+v, library %s %v", i+1, got, e.Ligand.Name, e.Result.Best.Score)
		}
	}
	if v.Result.Evaluations != direct.Evaluations || v.Result.SimulatedSeconds != direct.SimulatedSeconds {
		t.Errorf("work accounting differs: service (%d, %g) library (%d, %g)",
			v.Result.Evaluations, v.Result.SimulatedSeconds, direct.Evaluations, direct.SimulatedSeconds)
	}

	// Metrics now report the finished job, with non-zero latency and
	// evaluation counters.
	resp, err := c.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`metascreen_jobs_finished_total{state="done"} 1`,
		"metascreen_job_latency_seconds_count 1",
		fmt.Sprintf("metascreen_evaluations_total %d", direct.Evaluations),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "metascreen_job_latency_seconds_sum 0\n") {
		t.Error("job latency sum is zero after a completed job")
	}
}

// TestCancelMidRun cancels a running job and checks it finishes as
// cancelled, promptly, via its context.
func TestCancelMidRun(t *testing.T) {
	run, release := blockingRunner()
	defer release()
	s := newTestService(t, Config{Workers: 1}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	var v JobView
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Seed: 1}, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollState(t, c, srv.URL, v.ID, func(st JobState) bool { return st == StateRunning })

	if code := doJSON(t, c, "DELETE", srv.URL+"/v1/screens/"+v.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel status %d", code)
	}
	got := pollState(t, c, srv.URL, v.ID, JobState.Terminal)
	if got.State != StateCancelled {
		t.Fatalf("state %s after cancel", got.State)
	}
	// A second cancel conflicts.
	if code := doJSON(t, c, "DELETE", srv.URL+"/v1/screens/"+v.ID, nil, nil); code != http.StatusConflict {
		t.Errorf("re-cancel status %d, want 409", code)
	}
}

// TestQueueFull429 fills the single worker and the one queue slot, then
// checks admission control rejects with 429 and the rejection is counted.
func TestQueueFull429(t *testing.T) {
	run, release := blockingRunner()
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	var first JobView
	doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Seed: 1}, &first)
	// Wait until the worker claims it, so the queue slot is truly free.
	pollState(t, c, srv.URL, first.ID, func(st JobState) bool { return st == StateRunning })

	var second JobView
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Seed: 2}, &second); code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	buf, _ := json.Marshal(ScreenRequest{Seed: 3})
	resp, err := c.Post(srv.URL+"/v1/screens", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]any
	if derr := json.NewDecoder(resp.Body).Decode(&errBody); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if msg, _ := errBody["error"].(string); !strings.Contains(msg, "queue full") {
		t.Errorf("error body %q", msg)
	}
	if errBody["reason"] != "queue_full" {
		t.Errorf("reason %v, want queue_full", errBody["reason"])
	}
	for _, k := range []string{"retry_after_seconds", "queue_depth", "limit"} {
		if _, ok := errBody[k]; !ok {
			t.Errorf("429 body missing %q", k)
		}
	}

	release()
	pollState(t, c, srv.URL, second.ID, JobState.Terminal)
	resp, _ = c.Get(srv.URL + "/metrics")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "metascreen_jobs_rejected_total 1") {
		t.Error("rejection not counted")
	}
}

// TestGracefulShutdown checks Shutdown cancels queued jobs, refuses new
// submissions, lets the running job finish, and flips /healthz to 503.
func TestGracefulShutdown(t *testing.T) {
	run, release := blockingRunner()
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	var running, queued JobView
	doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Seed: 1}, &running)
	pollState(t, c, srv.URL, running.ID, func(st JobState) bool { return st == StateRunning })
	doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Seed: 2}, &queued)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// The queued job is cancelled immediately; intake closes; health
	// flips to draining.
	q := pollState(t, c, srv.URL, queued.ID, JobState.Terminal)
	if q.State != StateCancelled {
		t.Errorf("queued job state %s, want cancelled", q.State)
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Seed: 3}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
	var st Stats
	if code := doJSON(t, c, "GET", srv.URL+"/healthz", nil, &st); code != http.StatusServiceUnavailable || !st.Draining {
		t.Errorf("healthz while draining: %d %+v", code, st)
	}

	// The running job is not killed: it finishes once released.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v before the running job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r, err := s.Get(running.ID)
	if err != nil || r.State != StateDone {
		t.Fatalf("running job after drain: %+v %v", r, err)
	}
}

// TestShutdownDeadlineForceCancels checks an expired shutdown context
// force-cancels the running job instead of hanging.
func TestShutdownDeadlineForceCancels(t *testing.T) {
	run, release := blockingRunner()
	defer release()
	s := newTestService(t, Config{Workers: 1}, run)

	v, err := s.Submit(ScreenRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State == StateRunning
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown returned %v, want deadline exceeded", err)
	}
	got, err := s.Get(v.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("job after forced drain: %+v %v", got, err)
	}
}

// TestDrainLeavesDurableJobToResume: with a data dir, a running job the
// drain deadline interrupts is not journaled terminal. Like a crash, it
// resumes on the next boot over the same dir and runs to completion.
func TestDrainLeavesDurableJobToResume(t *testing.T) {
	dir := t.TempDir()
	run, release := blockingRunner()
	defer release()
	cfg := durableConfig(dir)
	cfg.Runner = run
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Submit(ScreenRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { got, _ := s.Get(v.ID); return got.State == StateRunning })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown returned %v, want deadline exceeded", err)
	}
	if got, _ := s.Get(v.ID); got.State.Terminal() {
		t.Fatalf("an interrupted durable job ended %s", got.State)
	}

	cfg.Runner = RunFunc(func(context.Context, string, ScreenRequest) (*core.ScreenResult, error) { return stubResult(), nil })
	rs := newTestService(t, cfg, nil)
	waitFor(t, func() bool { got, _ := rs.Get(v.ID); return got.State.Terminal() })
	if got, _ := rs.Get(v.ID); got.State != StateDone || got.Attempts != 2 {
		t.Fatalf("resumed job: %s after %d attempts, want done after 2", got.State, got.Attempts)
	}
}

// TestJobTimeout checks a per-job deadline fails the job.
func TestJobTimeout(t *testing.T) {
	run, release := blockingRunner()
	defer release()
	s := newTestService(t, Config{Workers: 1}, run)

	v, err := s.Submit(ScreenRequest{Seed: 1, TimeoutSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := s.Get(v.ID)
		return got.State.Terminal()
	})
	got, _ := s.Get(v.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("timed-out job: %+v", got)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestService(t, Config{Workers: 1}, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/job-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
	if code := doJSON(t, c, "DELETE", srv.URL+"/v1/screens/job-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d", code)
	}
	var errBody map[string]string
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", ScreenRequest{Dataset: "NOPE"}, &errBody); code != http.StatusBadRequest {
		t.Errorf("bad dataset: %d", code)
	}
	resp, err := c.Post(srv.URL+"/v1/screens", "application/json", strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}
	var list []JobView
	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens", nil, &list); code != http.StatusOK || len(list) != 0 {
		t.Errorf("list: %d, %d entries", code, len(list))
	}
}

// waitFor polls cond until true or the test deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
