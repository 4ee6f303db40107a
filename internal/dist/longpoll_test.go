package dist

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/trace"
)

// Tests for the coordinator side of the long-poll contract: it holds one
// poll per running chunk and merges deltas, it never asks a worker that
// does not hold polls more often than once per PollInterval, and a
// replayed, reordered or late response cannot merge a ligand twice.

// scriptWorker is a fake worker whose answers the test scripts. It never
// holds a request unless its partial function does.
type scriptWorker struct {
	srv *httptest.Server

	mu      sync.Mutex
	submits int
	polls   int
	// cancelled stamps each worker-side job the coordinator cancelled.
	cancelled map[string]time.Time
	// now stamps shard submissions; time.Now unless the test runs the
	// cluster on a virtual clock.
	now func() time.Time
	// refuse makes every shard submission a 400.
	refuse bool
	// partial answers a poll of one shard; nil reports it running with
	// nothing completed. Called without mu held.
	partial func(r *http.Request, sh scriptShard) service.PartialView
	shards  map[string]scriptShard // by worker-side job ID: "script-1", …

	conns atomic.Int32 // connections ever accepted
}

// scriptShard is one shard as the fake worker received it.
type scriptShard struct {
	key       string // the dispatch's idempotency key: "<coordinator job>/<shard>"
	ligands   []string
	submitted time.Time
}

func startScriptWorker(t *testing.T) *scriptWorker {
	t.Helper()
	sw := &scriptWorker{now: time.Now, shards: map[string]scriptShard{}, cancelled: map[string]time.Time{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/screens", func(w http.ResponseWriter, r *http.Request) {
		var req service.ScreenRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sw.mu.Lock()
		sw.submits++
		id, refuse := "script-"+strconv.Itoa(sw.submits), sw.refuse
		sw.shards[id] = scriptShard{key: r.Header.Get("Idempotency-Key"), ligands: req.Ligands, submitted: sw.now()}
		sw.mu.Unlock()
		if refuse {
			service.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "refused by the script"})
			return
		}
		service.WriteJSON(w, http.StatusAccepted, service.JobView{ID: id, State: service.StateRunning})
	})
	mux.HandleFunc("GET /v1/screens/{id}/partial", func(w http.ResponseWriter, r *http.Request) {
		sw.mu.Lock()
		sw.polls++
		partial, sh := sw.partial, sw.shards[r.PathValue("id")]
		known := sh.ligands != nil
		sw.mu.Unlock()
		if !known {
			// A sub-screen this worker never admitted, as after a restart
			// without durability: the coordinator re-dispatches on a 404.
			service.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
			return
		}
		pv := service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Total: len(sh.ligands)}
		if partial != nil {
			pv = partial(r, sh)
		}
		service.WriteJSON(w, http.StatusOK, pv)
	})
	mux.HandleFunc("DELETE /v1/screens/{id}", func(w http.ResponseWriter, r *http.Request) {
		sw.mu.Lock()
		if _, ok := sw.cancelled[r.PathValue("id")]; !ok {
			sw.cancelled[r.PathValue("id")] = sw.now()
		}
		sw.mu.Unlock()
		service.WriteJSON(w, http.StatusAccepted, map[string]string{})
	})
	sw.srv = httptest.NewUnstartedServer(mux)
	sw.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			sw.conns.Add(1)
		}
	}
	sw.srv.Start()
	t.Cleanup(sw.srv.Close)
	return sw
}

// script installs the worker's behaviour.
func (sw *scriptWorker) script(f func(sw *scriptWorker)) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	f(sw)
}

func (sw *scriptWorker) counts() (submits, polls int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.submits, sw.polls
}

// waitCond polls cond until it holds.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNoSpinAgainstWorkerThatIgnoresWait: a worker that answers every
// poll at once with nothing new (an older binary, the fakes) has each of
// its chunks polled at the PollInterval cadence, exactly as before
// long-polling.
func TestNoSpinAgainstWorkerThatIgnoresWait(t *testing.T) {
	const interval = 25 * time.Millisecond
	sw := startScriptWorker(t)
	c := startCoordinator(t, Config{PollInterval: interval, HeartbeatTimeout: time.Hour})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := c.SubmitIdem(distRequest, ""); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "20 polls", func() bool { _, p := sw.counts(); return p >= 20 })
	submits, polls := sw.counts()
	if limit := submits * (int(time.Since(start)/interval) + 2); polls > limit {
		t.Fatalf("%d polls of %d chunks in %v: more than one per chunk per %v (limit %d)", polls, submits, time.Since(start), interval, limit)
	}
}

// TestNoSpinAgainstWorkerThatRefusesDispatch: an attempted dispatch is
// not progress. A worker that stays registered but refuses every chunk
// sees at most one attempt per chunk it holds per PollInterval.
func TestNoSpinAgainstWorkerThatRefusesDispatch(t *testing.T) {
	const interval = 25 * time.Millisecond
	sw := startScriptWorker(t)
	sw.script(func(sw *scriptWorker) { sw.refuse = true })
	c := startCoordinator(t, Config{PollInterval: interval, HeartbeatTimeout: time.Hour, FailThreshold: 1000})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := c.SubmitIdem(distRequest, ""); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "20 dispatch attempts", func() bool { s, _ := sw.counts(); return s >= 20 })
	submits, _ := sw.counts()
	if limit := chunksPerWorker * (int(time.Since(start)/interval) + 2); submits > limit {
		t.Fatalf("%d dispatch attempts in %v: more than %d per %v (limit %d)", submits, time.Since(start), chunksPerWorker, interval, limit)
	}
}

// TestWorkerRestartMidShardMergesOnce: the worker's process restarts
// mid-chunk, so its completion log is a new incarnation — rebuilt from a
// checkpoint with fewer entries in another order. The coordinator's old
// cursor means nothing to it and is served from zero; every ligand still
// merges exactly once.
func TestWorkerRestartMidShardMergesOnce(t *testing.T) {
	sw := startScriptWorker(t)
	// The scripted log and its incarnation; cursors are "<inc>-<offset>".
	var mu sync.Mutex
	inc, log := "a", []string(nil)
	polled := map[string]int{} // polls answered per incarnation
	answer := func(r *http.Request, sh scriptShard) service.PartialView {
		mu.Lock()
		defer mu.Unlock()
		from := 0
		if gen, off, ok := strings.Cut(r.URL.Query().Get("since"), "-"); ok && gen == inc {
			if n, err := strconv.Atoi(off); err == nil && n <= len(log) {
				from = n
			}
		}
		pv := service.PartialView{
			ID: r.PathValue("id"), State: service.StateRunning, Completed: len(log), Total: len(sh.ligands),
			Cursor: inc + "-" + strconv.Itoa(len(log)),
		}
		for i, name := range log[from:] {
			pv.Entries = append(pv.Entries, service.PartialEntry{Ligand: name, Score: float64(from + i)})
		}
		if len(log) == len(sh.ligands) {
			pv.State = service.StateDone
		}
		polled[inc]++
		return pv
	}
	c := startCoordinator(t, Config{HeartbeatTimeout: time.Hour})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	// One chunk holding the whole screen, polled by hand.
	j := newJob("restart-job", distRequest.Normalized(), nil, nil)
	names := j.names
	sh := &shard{id: "s0", worker: sw.srv.URL, epoch: 1, ligands: names, remote: "script-1"}
	sw.script(func(sw *scriptWorker) {
		sw.partial = answer
		sw.shards[sh.remote] = scriptShard{ligands: names}
	})
	poll := func(wantMerged int) {
		t.Helper()
		if err := c.poll(context.Background(), j, sh); err != nil {
			t.Fatal(err)
		}
		c.h.Lock()
		defer c.h.Unlock()
		if len(j.merged) != wantMerged {
			t.Fatalf("%d ligands merged, want %d", len(j.merged), wantMerged)
		}
	}

	// First incarnation: five ligands complete and are merged.
	mu.Lock()
	log = append(log, names[:5]...)
	mu.Unlock()
	poll(5)

	// Restart: the checkpoint held three of them and comes back in map
	// order; one ligand the coordinator never saw completes before the
	// next poll. The stale cursor is served from zero, then cursored.
	mu.Lock()
	inc, log = "b", []string{names[3], names[0], names[2], names[7]}
	mu.Unlock()
	poll(6)
	poll(6)
	if polled["b"] != 2 || !strings.HasPrefix(sh.cursor, "b-") {
		t.Fatalf("new incarnation polled %d times, cursor %q", polled["b"], sh.cursor)
	}

	// The rest completes, re-docking the two ligands the checkpoint lost.
	mu.Lock()
	for _, name := range names {
		seen := false
		for _, have := range log {
			seen = seen || have == name
		}
		if !seen {
			log = append(log, name)
		}
	}
	mu.Unlock()
	poll(len(names))
	if !sh.done {
		t.Fatal("chunk not done once every ligand merged")
	}
	if got := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"); got != len(names) {
		t.Errorf("ligands_merged_total = %d, want exactly %d", got, len(names))
	}
	if got := workerView(t, c, sw.srv.URL).Merged; got != int64(len(names)) {
		t.Errorf("worker credited with %d merged ligands, want %d", got, len(names))
	}
}

// TestLateResponseAfterHoldDropped: a chunk is fenced (backup race lost,
// its worker revived) while its poll is held on the worker. The
// response that eventually arrives carries every ligand, and none of
// them may merge.
func TestLateResponseAfterHoldDropped(t *testing.T) {
	sw := startScriptWorker(t)
	holding, release := make(chan struct{}), make(chan struct{})
	answer := func(r *http.Request, sh scriptShard) service.PartialView {
		close(holding)
		<-release
		pv := service.PartialView{ID: r.PathValue("id"), State: service.StateDone, Completed: len(sh.ligands), Total: len(sh.ligands)}
		for _, name := range sh.ligands {
			pv.Entries = append(pv.Entries, service.PartialEntry{Ligand: name})
		}
		return pv
	}
	c := startCoordinator(t, Config{HeartbeatTimeout: time.Hour})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	j := newJob("late-job", distRequest.Normalized(), nil, nil)
	sh := &shard{id: "s0", worker: sw.srv.URL, epoch: 1, ligands: j.names, remote: "script-1"}
	sw.script(func(sw *scriptWorker) {
		sw.partial = answer
		sw.shards[sh.remote] = scriptShard{ligands: j.names}
	})

	done := make(chan bool, 1)
	go func() {
		done <- c.poll(context.Background(), j, sh) != nil
	}()
	<-holding
	c.h.Lock()
	sh.moved = true
	c.h.Unlock()
	close(release)
	if fatal := <-done; fatal {
		t.Fatal("late response for a moved shard failed the job")
	}
	c.h.Lock()
	defer c.h.Unlock()
	if len(j.merged) != 0 || sh.done || sh.cursor != "" {
		t.Fatalf("late response applied: %d ligands merged, done=%v cursor=%q", len(j.merged), sh.done, sh.cursor)
	}
}

// TestRankingIndependentOfPollInterval: the N-node ranking equals the
// one-node ranking byte for byte whether polls are held for 10 ms, 100 ms
// or 2 s — and at 2 s the screen still finishes inside one interval,
// because a worker answers the moment its shard is complete. The job's
// trace shows each shard's dispatch and poll wait on its worker's track.
func TestRankingIndependentOfPollInterval(t *testing.T) {
	want := singleNodeResult(t, distRequest)
	for _, interval := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, 2 * time.Second} {
		t.Run(interval.String(), func(t *testing.T) {
			c := startCoordinator(t, Config{PollInterval: interval})
			urls := map[string]bool{}
			for i := 0; i < 3; i++ {
				w := startWorker(t)
				urls[w.URL] = true
				defer beat(t, c, w.URL)()
			}
			start := time.Now()
			v, _, err := c.SubmitIdem(distRequest, "")
			if err != nil {
				t.Fatal(err)
			}
			final := waitJob(t, c, v.ID, 60*time.Second, func(v JobView) bool { return v.State.Terminal() })
			elapsed := time.Since(start)
			if final.State != service.StateDone {
				t.Fatalf("screen ended %s: %s", final.State, final.Error)
			}
			if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
				t.Fatalf("ranking differs from single-node:\n got %s\nwant %s", got, exp)
			}
			if final.Result.SimulatedSeconds != want.SimulatedSeconds || final.Result.Evaluations != want.Evaluations {
				t.Errorf("totals (%v, %d) != single-node (%v, %d)", final.Result.SimulatedSeconds,
					final.Result.Evaluations, want.SimulatedSeconds, want.Evaluations)
			}
			if got := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"); got != distRequest.Library {
				t.Errorf("ligands_merged_total = %d, want %d", got, distRequest.Library)
			}
			if interval == 2*time.Second && elapsed >= interval {
				t.Errorf("screen took %v with a %v poll interval: the interval is a latency floor again", elapsed, interval)
			}

			rec, err := c.Trace(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			spans := map[string]int{}
			for _, sp := range rec.Spans() {
				kind, _, _ := strings.Cut(sp.Name, " ")
				if kind != "dispatch" && kind != "poll" {
					continue
				}
				if !urls[sp.Track] || sp.Cat != trace.CatShard || sp.End < sp.Start {
					t.Errorf("span %q on track %q cat %q [%g, %g]", sp.Name, sp.Track, sp.Cat, sp.Start, sp.End)
				}
				if kind == "poll" && (sp.Args["entries"] == "" || sp.Args["cursor"] == "") {
					t.Errorf("poll span %q args %v: want entries and cursor", sp.Name, sp.Args)
				}
				spans[kind]++
			}
			if spans["dispatch"] != len(final.Shards) || spans["poll"] < len(final.Shards) {
				t.Errorf("%d dispatch and %d poll spans for %d shards", spans["dispatch"], spans["poll"], len(final.Shards))
			}
		})
	}
}

// TestHeldPollsReuseConnections: with the default transport, N chunks
// polled concurrently against one worker keep N connections warm instead
// of re-dialling all but http.DefaultTransport's two on every round.
func TestHeldPollsReuseConnections(t *testing.T) {
	const jobs, rounds = 8, 50
	sw := startScriptWorker(t)
	// Hold each poll long enough that all N are in flight together.
	sw.script(func(sw *scriptWorker) {
		sw.partial = func(r *http.Request, sh scriptShard) service.PartialView {
			time.Sleep(3 * time.Millisecond)
			return service.PartialView{ID: r.PathValue("id"), State: service.StateRunning, Total: len(sh.ligands)}
		}
	})
	c := startCoordinator(t, Config{PollInterval: 4 * time.Millisecond, HeartbeatTimeout: time.Hour})
	if _, err := c.Register(sw.srv.URL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		if _, _, err := c.SubmitIdem(distRequest, ""); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "50 polls per job", func() bool { _, p := sw.counts(); return p >= jobs*rounds })
	if got := int(sw.conns.Load()); got > jobs*chunksPerWorker+4 {
		t.Fatalf("%d connections opened for %d concurrently polled chunks over %d rounds", got, jobs*chunksPerWorker, rounds)
	}
}

// TestShutdownAbortsHeldPoll: Shutdown cancels a poll the worker is
// holding instead of waiting it out, the abort does not count against the
// worker, and once both sides are down no goroutine is left.
func TestShutdownAbortsHeldPoll(t *testing.T) {
	before := runtime.NumGoroutine()

	svc, err := service.New(service.Config{Workers: 1, ScreenWorkers: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	var held atomic.Int32
	h := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/partial") {
			held.Add(1)
			defer held.Add(-1)
		}
		h.ServeHTTP(w, r)
	}))
	c, err := New(Config{Logger: quiet, PollInterval: 8 * time.Second, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(srv.URL); err != nil {
		t.Fatal(err)
	}
	slow := distRequest
	slow.Library = 24
	slow.Scale = 0.35
	if _, _, err := c.SubmitIdem(slow, ""); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "a held poll", func() bool { return held.Load() >= 1 })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("coordinator shutdown: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("shutdown took %v with a poll held for up to 8s", el)
	}
	if ws := c.Workers(); len(ws) != 1 || !ws[0].Alive {
		t.Fatalf("aborting the held poll counted against the worker: %+v", ws)
	}

	srv.Close()
	kill, cancelKill := context.WithCancel(context.Background())
	cancelKill() // force-cancel the screen still running on the worker
	svc.Shutdown(kill)
	waitCond(t, "goroutines to wind down", func() bool { return runtime.NumGoroutine() <= before })
}
