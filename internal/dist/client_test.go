package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/service"
)

// Client-level tests: retry/timeout/backoff classification against stub
// servers, independent of the coordinator machinery.

func testClient(srv *httptest.Server) *client {
	return &client{
		hc:        srv.Client(),
		timeout:   time.Second,
		attempts:  3,
		backoff:   time.Millisecond,
		respLimit: 1 << 20,
	}
}

// TestClientRetriesTransient: 5xx responses are retried until an attempt
// succeeds, and each retry fires the metrics hook.
func TestClientRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	var retries atomic.Int64
	cl := testClient(srv)
	cl.onRetry = func() { retries.Add(1) }
	var out map[string]any
	if err := cl.do(context.Background(), http.MethodGet, srv.URL, nil, "", 0, &out); err != nil {
		t.Fatalf("request failed after retries: %v", err)
	}
	if calls.Load() != 3 || retries.Load() != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 and 2", calls.Load(), retries.Load())
	}
}

// TestClientFatalOn4xx: a client error is deterministic — no retry, the
// apiError surfaces on the first attempt.
func TestClientFatalOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"nope"}`))
	}))
	defer srv.Close()
	err := testClient(srv).do(context.Background(), http.MethodGet, srv.URL, nil, "", 0, nil)
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
		t.Fatalf("got %v, want a 400 apiError", err)
	}
	if retriable(err) {
		t.Error("400 classified as retriable")
	}
	if calls.Load() != 1 {
		t.Errorf("4xx retried: %d calls", calls.Load())
	}
}

// TestClientTimeoutBounded: a blackholed server cannot wedge the caller —
// each attempt is cut off at the per-request timeout, the failure is
// retriable, and the whole call returns within timeout × attempts plus
// backoff.
func TestClientTimeoutBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	cl := testClient(srv)
	cl.timeout = 50 * time.Millisecond
	cl.attempts = 2
	start := time.Now()
	err := cl.do(context.Background(), http.MethodGet, srv.URL, nil, "", 0, nil)
	if err == nil {
		t.Fatal("blackholed request succeeded")
	}
	if !retriable(err) {
		t.Errorf("timeout classified as fatal: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded call took %v", elapsed)
	}
}

// TestClientRespectsParentContext: when the caller's own context ends,
// the retry loop stops instead of burning remaining attempts.
func TestClientRespectsParentContext(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cl := testClient(srv)
	cl.attempts = 5
	if err := cl.do(ctx, http.MethodGet, srv.URL, nil, "", 0, nil); err == nil {
		t.Fatal("cancelled-context request succeeded")
	}
	if calls.Load() > 1 {
		t.Errorf("retried %d times under a cancelled context", calls.Load()-1)
	}
}

// TestClientResponseCap: an oversized body fails loud and fatal instead
// of truncating into a confusing JSON error.
func TestClientResponseCap(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write(make([]byte, 4096))
	}))
	defer srv.Close()
	cl := testClient(srv)
	cl.respLimit = 1024
	err := cl.do(context.Background(), http.MethodGet, srv.URL, nil, "", 0, nil)
	if err == nil {
		t.Fatal("oversized response accepted")
	}
	if retriable(err) {
		t.Errorf("oversized response classified as retriable: %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("oversized response retried: %d calls", calls.Load())
	}
}

// TestClientEpochEchoMismatch: a response echoing a different fencing
// epoch than the request carried is never trusted (retriable — the next
// attempt may reach the real worker).
func TestClientEpochEchoMismatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.EpochHeader, "42")
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	cl := testClient(srv)
	cl.attempts = 1
	err := cl.do(context.Background(), http.MethodGet, srv.URL, nil, "", 7, nil)
	if err == nil {
		t.Fatal("mismatched epoch echo accepted")
	}
	if !retriable(err) {
		t.Errorf("epoch mismatch classified as fatal: %v", err)
	}
}

// TestServiceEchoesEpoch: the worker side of the fencing handshake — a
// real service reflects the epoch header on its responses.
func TestServiceEchoesEpoch(t *testing.T) {
	w := startWorker(t)
	req, err := http.NewRequest(http.MethodGet, w.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.EpochHeader, "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(service.EpochHeader); got != "5" {
		t.Fatalf("service echoed epoch %q, want 5", got)
	}
}

// TestRetryBackoffShape: exponential growth, the cap, and the jitter
// band, all deterministic per (url, attempt).
func TestRetryBackoffShape(t *testing.T) {
	base := 50 * time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		d := rng.Backoff(base, maxClientBackoff, "http://w:1", attempt)
		if d != rng.Backoff(base, maxClientBackoff, "http://w:1", attempt) {
			t.Fatal("backoff not deterministic")
		}
		nominal := base << (attempt - 1)
		if nominal <= 0 || nominal > maxClientBackoff {
			nominal = maxClientBackoff
		}
		// Jitter keeps each sleep inside [0.5, 1.5) × the nominal delay.
		if d < nominal/2 || d >= nominal+nominal/2 {
			t.Fatalf("attempt %d backoff %v outside the jitter band of %v", attempt, d, nominal)
		}
	}
}

// TestParseRetryAfter: only the delay-seconds form is trusted; malformed,
// zero, or negative headers fall back to the computed backoff.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"abc", 0},
		{"-3", 0},
		{"0", 0},
		{"1", time.Second},
		{"2", 2 * time.Second},
		{"Fri, 07 Aug 2026 09:00:00 GMT", 0}, // HTTP-date form is not emitted by the service
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.header); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestRetryDelayHonorsRetryAfter: a server that said how long it wants to
// be left alone is believed — exactly, clamped to the backoff cap — and
// everything else gets the usual jittered exponential.
func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	cl := &client{backoff: 50 * time.Millisecond}
	shed := &retriableError{&apiError{status: http.StatusTooManyRequests, retryAfter: time.Second}}
	if got := cl.retryDelay(shed, "http://w:1", 1); got != time.Second {
		t.Errorf("Retry-After 1s produced delay %v, want exactly 1s", got)
	}
	far := &retriableError{&apiError{status: http.StatusServiceUnavailable, retryAfter: time.Minute}}
	if got := cl.retryDelay(far, "http://w:1", 1); got != maxClientBackoff {
		t.Errorf("Retry-After 1m produced delay %v, want the %v clamp", got, maxClientBackoff)
	}
	plain := &retriableError{&apiError{status: http.StatusInternalServerError}}
	if got, want := cl.retryDelay(plain, "http://w:1", 2), rng.Backoff(cl.backoff, maxClientBackoff, "http://w:1", 2); got != want {
		t.Errorf("no Retry-After: delay %v, want the computed backoff %v", got, want)
	}
}

// TestClientWaitsOutRetryAfter: end to end through do() — a 429 carrying
// Retry-After: 1 delays the retry by a full second instead of the
// millisecond-scale backoff the test client would otherwise use.
func TestClientWaitsOutRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	start := time.Now()
	if err := testClient(srv).do(context.Background(), http.MethodGet, srv.URL, nil, "", 0, nil); err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2", calls.Load())
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("retry waited %v, want ~1s per the server's Retry-After", elapsed)
	}
}

// TestBeatJitterBounds: heartbeat waits stay inside ±20% of the interval,
// spread across beats, and replay identically.
func TestBeatJitterBounds(t *testing.T) {
	interval := time.Second
	seen := make(map[time.Duration]bool)
	for n := uint64(0); n < 200; n++ {
		d := beatJitter(interval, "http://w:1", n)
		if d < 800*time.Millisecond || d >= 1200*time.Millisecond {
			t.Fatalf("beat %d jittered to %v, outside [0.8s, 1.2s)", n, d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct waits over 200 beats", len(seen))
	}
	if beatJitter(interval, "http://w:1", 3) != beatJitter(interval, "http://w:1", 3) {
		t.Error("beat jitter not deterministic")
	}
}

// TestConfigValidate: nonsense tuning is rejected before any state is
// built or journaled.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RequestAttempts: -1},
		{FailThreshold: -2},
		{RetryBaseDelay: -time.Second},
		{PollInterval: -time.Second},
		{HeartbeatTimeout: -time.Second},
		{RequestTimeout: -time.Millisecond},
		{Service: service.Config{QueueDepth: -5}},
		{Service: service.Config{Workers: -1}},
	}
	for i, cfg := range bad {
		if c, err := New(cfg); err == nil {
			c.Shutdown(context.Background())
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
