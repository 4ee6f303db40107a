package dist

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/service"
)

// Coordinator integration tests against real screening services: each
// "worker node" is a service.Service behind httptest, so dispatch,
// partial polling, merging and fault recovery exercise the same HTTP
// surface production uses — only the listener is in-process.

// A coordinator's views are a node's.
type (
	JobView   = service.JobView
	ShardView = service.ShardView
)

var quiet = slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError}))

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// distRequest is the screen used across these tests: big enough that a
// 3-way split gives every worker real work, small enough for test time.
var distRequest = service.ScreenRequest{
	Dataset: "2BSM", Library: 12, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7,
}

// startWorker boots a real screening service behind httptest. Workers
// dock sequentially (ScreenWorkers: 1) so shards take long enough for
// the tests to observe — and interrupt — screens mid-flight.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 1, ScreenWorkers: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return srv
}

// startCoordinator boots a coordinator with test-speed tuning plus a
// heartbeat goroutine per worker URL. Stopping a worker's heartbeat (and
// its server) is how tests kill a node.
func startCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c
}

// beat keeps a worker registered until the returned stop is called.
func beat(t *testing.T, c *Coordinator, url string) (stop func()) {
	t.Helper()
	if _, err := c.Register(url); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				c.Register(url)
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
		}
	}
}

// waitJob polls the coordinator until the predicate holds. timeout bounds
// a stall, not the whole wait: the deadline restarts whenever the job's
// State or Completed count moves, so a slow box (-race on two cores)
// passes and only a screen that stopped progressing is "stuck".
func waitJob(t *testing.T, c *Coordinator, id string, timeout time.Duration, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last JobView
	for {
		v, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(v) {
			return v
		}
		if v.State != last.State || v.Completed != last.Completed {
			last, deadline = v, time.Now().Add(timeout)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck (no progress for %s): state=%s completed=%d/%d err=%q",
				id, timeout, v.State, v.Completed, v.Total, v.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// singleNodeResult runs the reference screen on one real service.
func singleNodeResult(t *testing.T, req service.ScreenRequest) *service.ResultView {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 1, ScreenWorkers: 2, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	v, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, err := svc.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			if got.State != service.StateDone {
				t.Fatalf("reference run ended %s: %s", got.State, got.Error)
			}
			return got.Result
		}
		if time.Now().After(deadline) {
			t.Fatal("reference run stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rankingJSON renders a ranking for byte-level comparison.
func rankingJSON(t *testing.T, entries []service.RankEntry) string {
	t.Helper()
	b, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDistributedByteIdenticalToSingleNode: the tentpole contract. A
// screen sharded across 3 worker nodes merges to the same ranking — byte
// for byte, totals included — as the same screen on a single node.
func TestDistributedByteIdenticalToSingleNode(t *testing.T) {
	c := startCoordinator(t, Config{})
	for i := 0; i < 3; i++ {
		defer beat(t, c, startWorker(t).URL)()
	}

	v, existing, err := c.SubmitIdem(distRequest, "dist-vs-single")
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("fresh submission reported as existing")
	}
	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("distributed screen ended %s: %s", final.State, final.Error)
	}
	if len(final.Shards) < 2 {
		t.Fatalf("expected a real split, got %d shards", len(final.Shards))
	}

	want := singleNodeResult(t, distRequest)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("merged ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if final.Result.SimulatedSeconds != want.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != single-node %v",
			final.Result.SimulatedSeconds, want.SimulatedSeconds)
	}
	if final.Result.Evaluations != want.Evaluations {
		t.Errorf("evaluations %d != single-node %d", final.Result.Evaluations, want.Evaluations)
	}

	// Idempotent resubmission maps onto the finished job.
	again, existing, err := c.SubmitIdem(distRequest, "dist-vs-single")
	if err != nil || !existing || again.ID != v.ID {
		t.Fatalf("idempotent resubmit: existing=%v id=%s err=%v", existing, again.ID, err)
	}
}

// TestWorkerDeathResharding: kill one of three workers mid-screen. The
// coordinator re-splits the dead node's unfinished ligands over the
// survivors and the final ranking is still byte-identical to the
// single-node run.
func TestWorkerDeathResharding(t *testing.T) {
	c := startCoordinator(t, Config{HeartbeatTimeout: 700 * time.Millisecond})
	victim := startWorker(t)
	stopVictim := beat(t, c, victim.URL)
	for i := 0; i < 2; i++ {
		defer beat(t, c, startWorker(t).URL)()
	}

	// A larger, paper-scale screen keeps all three shards busy long
	// enough to kill a node mid-screen deterministically.
	killReq := distRequest
	killReq.Library = 24
	killReq.Scale = 0.35
	v, _, err := c.SubmitIdem(killReq, "")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the screen is genuinely mid-flight, then kill the victim.
	waitJob(t, c, v.ID, 60*time.Second, func(v JobView) bool {
		return v.Completed > 0 && v.Completed < v.Total
	})
	stopVictim()
	victim.Close()

	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s after worker death: %s", final.State, final.Error)
	}
	if final.Resplits < 1 {
		t.Error("worker death produced no re-split")
	}

	want := singleNodeResult(t, killReq)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("post-recovery ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if final.Result.SimulatedSeconds != want.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != single-node %v",
			final.Result.SimulatedSeconds, want.SimulatedSeconds)
	}

	alive := 0
	for _, w := range c.Workers() {
		if w.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("%d workers alive after the kill, want 2", alive)
	}
}

// TestCoordinatorRestartResumes: a coordinator drained mid-screen does
// not journal the screen terminal, and rebooted over the same journal
// resumes it — re-dispatching under the original idempotency keys so the
// still-running workers hand back the same jobs — and finishes with the
// single-node ranking.
func TestCoordinatorRestartResumes(t *testing.T) {
	dir := t.TempDir()
	w1, w2 := startWorker(t), startWorker(t)

	// Slow enough that the shutdown below genuinely lands mid-screen.
	slowReq := distRequest
	slowReq.Library = 16
	slowReq.Scale = 0.35

	c1 := startCoordinator(t, Config{DataDir: dir})
	s1, s2 := beat(t, c1, w1.URL), beat(t, c1, w2.URL)
	v, _, err := c1.SubmitIdem(slowReq, "restart-key")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c1, v.ID, 60*time.Second, func(v JobView) bool {
		return v.Completed > 0 && v.Completed < v.Total
	})
	s1()
	s2()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	c2 := startCoordinator(t, Config{DataDir: dir})
	defer beat(t, c2, w1.URL)()
	defer beat(t, c2, w2.URL)()

	restored, err := c2.Get(v.ID)
	if err != nil {
		t.Fatalf("restarted coordinator forgot job %s: %v", v.ID, err)
	}
	if restored.Request.Seed != distRequest.Seed || restored.State.Terminal() {
		t.Fatalf("restored screen: seed %d (want %d), state %s", restored.Request.Seed, distRequest.Seed, restored.State)
	}
	final := waitJob(t, c2, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("resumed screen ended %s: %s", final.State, final.Error)
	}

	want := singleNodeResult(t, slowReq)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("resumed ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}

	// The idempotency key survived the restart too.
	again, existing, err := c2.SubmitIdem(distRequest, "restart-key")
	if err != nil || !existing || again.ID != v.ID {
		t.Fatalf("idempotency across restart: existing=%v id=%q err=%v", existing, again.ID, err)
	}
}

// TestSubmitBeforeAnyWorker: a screen submitted to an empty cluster is
// running from the moment the pool takes it, holds no chunk until a worker
// registers, and then runs to completion.
func TestSubmitBeforeAnyWorker(t *testing.T) {
	c := startCoordinator(t, Config{})
	v, _, err := c.SubmitIdem(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State == service.StateRunning })
	time.Sleep(100 * time.Millisecond)
	if got, _ := c.Get(v.ID); got.State != service.StateRunning || len(got.Shards) != 0 {
		t.Fatalf("job with no workers is %s with %d chunks, want running with none", got.State, len(got.Shards))
	}
	defer beat(t, c, startWorker(t).URL)()
	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s: %s", final.State, final.Error)
	}
}

// TestCancelDistributed: cancelling a running distributed screen lands
// it in cancelled and (best-effort) cancels the worker-side jobs.
func TestCancelDistributed(t *testing.T) {
	c := startCoordinator(t, Config{})
	defer beat(t, c, startWorker(t).URL)()

	big := distRequest
	big.Library = 64
	v, _, err := c.SubmitIdem(big, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 60*time.Second, func(v JobView) bool { return v.State == service.StateRunning })
	if _, err := c.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateCancelled {
		t.Fatalf("cancelled screen ended %s", final.State)
	}
	if _, err := c.Cancel(v.ID); err != service.ErrTerminal {
		t.Fatalf("second cancel returned %v, want ErrTerminal", err)
	}
}

// TestViewsAndValidation covers the small surfaces: bad requests are
// rejected at submit, unknown jobs 404, reflect.DeepEqual sanity on
// List/Workers ordering.
func TestViewsAndValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	bad := distRequest
	bad.Metaheuristic = "M9"
	if _, _, err := c.SubmitIdem(bad, ""); err == nil {
		t.Error("invalid metaheuristic admitted")
	}
	if _, err := c.Get("nope"); err != service.ErrNotFound {
		t.Errorf("unknown job returned %v, want ErrNotFound", err)
	}
	if _, err := c.Register("not-a-url"); err == nil {
		t.Error("bogus worker URL registered")
	}
	if _, err := c.Register("ftp://x"); err == nil {
		t.Error("non-http worker URL registered")
	}
	if _, err := c.Register("http://a:1"); err != nil {
		t.Error(err)
	}
	if _, err := c.Register("http://b:2"); err != nil {
		t.Error(err)
	}
	ws := c.Workers()
	if !reflect.DeepEqual([]string{ws[0].URL, ws[1].URL}, []string{"http://a:1", "http://b:2"}) {
		t.Errorf("workers not sorted by URL: %+v", ws)
	}
}

// TestPaginationDoesNotCorruptTerminalView: a terminal job's view is
// frozen and shared across requests; a paginated GET through the HTTP
// handler must window a copy, never truncate the cached ranking (the
// regression: one ?limit=1 poll used to shrink every later response).
func TestPaginationDoesNotCorruptTerminalView(t *testing.T) {
	w := startWorker(t)
	c := startCoordinator(t, Config{})
	defer beat(t, c, w.URL)()

	v, _, err := c.SubmitIdem(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State == service.StateDone })

	api := httptest.NewServer(c.Handler())
	defer api.Close()
	var page JobView
	getInto := func(url string) {
		t.Helper()
		resp, err := api.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
	}
	getInto(api.URL + "/v1/screens/" + v.ID + "?limit=1")
	if len(page.Result.Ranking) != 1 || page.Result.RankingTotal != distRequest.Library {
		t.Fatalf("window: %d entries of %d total", len(page.Result.Ranking), page.Result.RankingTotal)
	}
	getInto(api.URL + "/v1/screens/" + v.ID)
	if len(page.Result.Ranking) != distRequest.Library {
		t.Fatalf("full ranking shrank to %d entries after a paginated request", len(page.Result.Ranking))
	}
}
