package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
)

// transientError builds the kind of typed device error the simulated
// backend surfaces for recoverable faults.
func transientError() error {
	return fmt.Errorf("screen aborted: %w",
		&cudasim.DeviceError{Device: 1, Kind: cudasim.FaultTransient, Op: "scoring", At: 0.25})
}

// flakyRunner fails with a transient error for the first failures calls,
// then succeeds.
func flakyRunner(failures int64) (RunFunc, *atomic.Int64) {
	var calls atomic.Int64
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		if calls.Add(1) <= failures {
			return nil, transientError()
		}
		return stubResult(), nil
	}
	return run, &calls
}

// submitAndWait submits one job and polls it to a terminal state.
func submitAndWait(t *testing.T, c *http.Client, base string, req ScreenRequest) JobView {
	t.Helper()
	var v JobView
	if code := doJSON(t, c, "POST", base+"/v1/screens", req, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	return pollState(t, c, base, v.ID, JobState.Terminal)
}

func metricsText(t *testing.T, c *http.Client, base string) string {
	t.Helper()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestTransientJobRetriesThenSucceeds: two transient failures, then
// success — the job lands Done with the retry history visible in its JSON
// and in the metrics.
func TestTransientJobRetriesThenSucceeds(t *testing.T) {
	run, calls := flakyRunner(2)
	s := newTestService(t, Config{Workers: 1, MaxAttempts: 5, RetryBaseDelay: 1e6 /* 1ms */}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, ScreenRequest{Seed: 1})
	if v.State != StateDone {
		t.Fatalf("job finished as %s (%s)", v.State, v.Error)
	}
	if calls.Load() != 3 {
		t.Errorf("runner called %d times, want 3", calls.Load())
	}
	if v.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", v.Attempts)
	}
	if !strings.Contains(v.LastError, "transient") {
		t.Errorf("last_error = %q, want the transient cause", v.LastError)
	}
	if v.Error != "" {
		t.Errorf("done job carries error %q", v.Error)
	}
	if v.Result == nil {
		t.Fatal("done job has no result")
	}

	text := metricsText(t, c, srv.URL)
	if !strings.Contains(text, "metascreen_job_retries_total 2") {
		t.Errorf("metrics missing job_retries_total 2:\n%s", text)
	}
	if !strings.Contains(text, `metascreen_jobs_finished_total{state="done"} 1`) {
		t.Error("retried job not counted as done")
	}
}

// TestTransientExhaustsAttempts: MaxAttempts bounds the retries; the job
// fails with the typed cause once the budget is spent.
func TestTransientExhaustsAttempts(t *testing.T) {
	run, calls := flakyRunner(1 << 30) // never succeeds
	s := newTestService(t, Config{Workers: 1, MaxAttempts: 3, RetryBaseDelay: 1e6}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, ScreenRequest{Seed: 1})
	if v.State != StateFailed {
		t.Fatalf("job finished as %s", v.State)
	}
	if calls.Load() != 3 {
		t.Errorf("runner called %d times, want MaxAttempts=3", calls.Load())
	}
	if v.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", v.Attempts)
	}
	if !strings.Contains(v.Error, "transient") {
		t.Errorf("error = %q, want the transient cause", v.Error)
	}
	if !strings.Contains(metricsText(t, c, srv.URL), "metascreen_job_retries_total 2") {
		t.Error("metrics missing the 2 retries")
	}
}

// TestPermanentErrorFailsWithoutRetry: a non-transient failure is final on
// the first attempt.
func TestPermanentErrorFailsWithoutRetry(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		calls.Add(1)
		return nil, fmt.Errorf("screen aborted: %w",
			&cudasim.DeviceError{Device: 0, Kind: cudasim.FaultPermanent, Op: "scoring", At: 0.1})
	}
	s := newTestService(t, Config{Workers: 1, MaxAttempts: 5, RetryBaseDelay: 1e6}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, ScreenRequest{Seed: 1})
	if v.State != StateFailed {
		t.Fatalf("job finished as %s", v.State)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent failure ran %d attempts, want 1", calls.Load())
	}
	if v.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", v.Attempts)
	}
	if strings.Contains(metricsText(t, c, srv.URL), "metascreen_job_retries_total 1") {
		t.Error("permanent failure counted a retry")
	}
}

// TestWorkerSurvivesPanic: a panicking runner fails its job but the worker
// goroutine lives to serve the next one.
func TestWorkerSurvivesPanic(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		if calls.Add(1) == 1 {
			panic("scoring table corrupted")
		}
		return stubResult(), nil
	}
	s := newTestService(t, Config{Workers: 1, MaxAttempts: 1}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	first := submitAndWait(t, c, srv.URL, ScreenRequest{Seed: 1})
	if first.State != StateFailed {
		t.Fatalf("panicked job finished as %s", first.State)
	}
	if !strings.Contains(first.Error, "panic") || !strings.Contains(first.Error, "scoring table corrupted") {
		t.Errorf("error = %q, want the recovered panic", first.Error)
	}

	// The same (sole) worker must still be alive to run this job.
	second := submitAndWait(t, c, srv.URL, ScreenRequest{Seed: 2})
	if second.State != StateDone {
		t.Fatalf("job after panic finished as %s (%s)", second.State, second.Error)
	}
	if !strings.Contains(metricsText(t, c, srv.URL), "metascreen_worker_panics_total 1") {
		t.Error("metrics missing the recovered panic")
	}
}

// TestRetryDisabledWithSingleAttempt: MaxAttempts 1 turns retries off even
// for transient failures.
func TestRetryDisabledWithSingleAttempt(t *testing.T) {
	run, calls := flakyRunner(1 << 30)
	s := newTestService(t, Config{Workers: 1, MaxAttempts: 1}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, ScreenRequest{Seed: 1})
	if v.State != StateFailed || calls.Load() != 1 {
		t.Errorf("state=%s calls=%d, want failed after exactly 1 attempt", v.State, calls.Load())
	}
}
