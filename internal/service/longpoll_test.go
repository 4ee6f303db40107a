package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/core"
)

// Tests for the cursored long-poll form of GET /v1/screens/{id}/partial
// (?since=&wait=). The job under test is scripted: its runner records a
// ligand when the test says so and ends when the test says so, so every
// hold and every wake below is caused by a named event, not by timing.

// scriptedJob drives one running job of a scripted service.
type scriptedJob struct {
	t   *testing.T
	s   *Service
	srv *httptest.Server
	id  string

	ligand chan string // each name received is recorded as completed
	done   chan struct{}
	end    chan error // ends the run with this outcome

	inFlight atomic.Int32 // /partial handlers currently running
}

// longWait is a hold no passing test waits out.
const longWait = "8s"

// startScripted boots a one-worker service whose only job (library of
// `library` ligands) is running under the test's control.
func startScripted(t *testing.T, library int) *scriptedJob {
	t.Helper()
	sj := &scriptedJob{t: t, ligand: make(chan string), done: make(chan struct{}), end: make(chan error)}
	sj.s = newTestService(t, Config{Workers: 1, MaxAttempts: 1}, func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		for {
			select {
			case name := <-sj.ligand:
				h := Host{sj.s}
				h.Lock()
				h.CheckpointLocked(id, []core.LigandRecord{{Name: name, Atoms: 3, Evaluations: 7}})
				h.Unlock()
				sj.done <- struct{}{}
			case err := <-sj.end:
				if err != nil {
					return nil, err
				}
				return stubResult(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	})
	h := sj.s.Handler()
	sj.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/partial") {
			sj.inFlight.Add(1)
			defer sj.inFlight.Add(-1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(sj.srv.Close)
	v, err := sj.s.Submit(ScreenRequest{Library: library, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sj.id = v.ID
	waitFor(t, func() bool {
		v, _ := sj.s.Get(sj.id)
		return v.State == StateRunning
	})
	return sj
}

// complete records one more ligand and returns once it is visible.
func (sj *scriptedJob) complete(name string) {
	sj.ligand <- name
	<-sj.done
}

// finish ends the run and waits for the terminal state.
func (sj *scriptedJob) finish(err error) {
	sj.end <- err
	waitFor(sj.t, func() bool {
		v, _ := sj.s.Get(sj.id)
		return v.State.Terminal()
	})
}

// partial issues one GET …/partial with the given query.
func (sj *scriptedJob) partial(query string) (PartialView, int) {
	sj.t.Helper()
	var pv PartialView
	code := doJSON(sj.t, sj.srv.Client(), "GET", sj.srv.URL+"/v1/screens/"+sj.id+"/partial?"+query, nil, &pv)
	return pv, code
}

type heldReply struct {
	pv      PartialView
	elapsed time.Duration
}

// hold starts a long-poll from the given cursor and returns once the
// worker is really holding it (the job has a waiter registered).
func (sj *scriptedJob) hold(since string) <-chan heldReply {
	sj.t.Helper()
	out := make(chan heldReply, 1)
	go func() {
		start := time.Now()
		resp, err := sj.srv.Client().Get(sj.srv.URL + "/v1/screens/" + sj.id + "/partial?since=" + url.QueryEscape(since) + "&wait=" + longWait)
		if err != nil {
			sj.t.Errorf("held poll: %v", err)
			close(out)
			return
		}
		defer resp.Body.Close()
		var pv PartialView
		if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil {
			sj.t.Errorf("held poll: decode: %v", err)
		}
		out <- heldReply{pv, time.Since(start)}
	}()
	waitFor(sj.t, sj.held)
	return out
}

// held reports whether a request is waiting on the job.
func (sj *scriptedJob) held() bool {
	sj.s.mu.Lock()
	defer sj.s.mu.Unlock()
	return sj.s.jobs[sj.id].wake != nil
}

// woken receives a held poll's reply, which must arrive well before its
// wait would have expired.
func (sj *scriptedJob) woken(ch <-chan heldReply) PartialView {
	sj.t.Helper()
	select {
	case r, ok := <-ch:
		if !ok {
			sj.t.FailNow()
		}
		if r.elapsed > 4*time.Second {
			sj.t.Fatalf("held poll answered after %v — it waited out the hold instead of waking", r.elapsed)
		}
		return r.pv
	case <-time.After(20 * time.Second):
		sj.t.Fatal("held poll never answered")
	}
	return PartialView{}
}

func ligands(pv PartialView) string {
	var names []string
	for _, e := range pv.Entries {
		names = append(names, e.Ligand)
	}
	return strings.Join(names, ",")
}

// TestPartialDeltaWhenComplete: once every requested ligand is recorded
// the job is complete — before it is terminal — and a long-poll returns
// at once with the entries past its cursor, in completion order, unranked.
func TestPartialDeltaWhenComplete(t *testing.T) {
	sj := startScripted(t, 3)
	sj.complete("LIG-002")
	first, _ := sj.partial("since=")
	if ligands(first) != "LIG-002" || first.Cursor == "" {
		t.Fatalf("first delta %q cursor %q", ligands(first), first.Cursor)
	}
	sj.complete("LIG-000")
	sj.complete("LIG-001")

	start := time.Now()
	pv, code := sj.partial("since=" + first.Cursor + "&wait=" + longWait)
	if code != http.StatusOK || time.Since(start) > 2*time.Second {
		t.Fatalf("complete job held the poll: status %d after %v", code, time.Since(start))
	}
	if pv.State != StateRunning || pv.Completed != 3 || pv.Total != 3 || pv.EntriesTotal != 3 || pv.EntriesOffset != 1 {
		t.Fatalf("view %+v", pv)
	}
	if ligands(pv) != "LIG-000,LIG-001" {
		t.Fatalf("delta %q, want completion order past the cursor", ligands(pv))
	}
	for _, e := range pv.Entries {
		if e.Rank != 0 || e.Atoms != 3 || e.Evaluations != 7 {
			t.Errorf("delta entry %+v: want rank 0 and the recorded detail", e)
		}
	}
	// Caught up: nothing new, same cursor, still no hold.
	again, _ := sj.partial("since=" + pv.Cursor + "&wait=" + longWait)
	if len(again.Entries) != 0 || again.Cursor != pv.Cursor {
		t.Fatalf("caught-up delta has %d entries, cursor %q -> %q", len(again.Entries), pv.Cursor, again.Cursor)
	}
	// limit caps a delta and the cursor advances by what was sent.
	capped, _ := sj.partial("since=&limit=2")
	rest, _ := sj.partial("since=" + capped.Cursor)
	if ligands(capped) != "LIG-002,LIG-000" || ligands(rest) != "LIG-001" {
		t.Fatalf("limit=2 delta %q then %q", ligands(capped), ligands(rest))
	}
	sj.finish(nil)
}

// TestPartialHoldWakes: a long-poll on an unsettled job is held, and is
// answered by the event that settles the job — the last ligand, a cancel,
// a failure, a shed — not by its timer.
func TestPartialHoldWakes(t *testing.T) {
	cases := []struct {
		name   string
		settle func(sj *scriptedJob)
		state  JobState
		want   string
	}{
		{"last ligand", func(sj *scriptedJob) { sj.complete("LIG-001") }, StateRunning, "LIG-000,LIG-001"},
		{"cancel", func(sj *scriptedJob) { sj.s.Cancel(sj.id) }, StateCancelled, "LIG-000"},
		{"failure", func(sj *scriptedJob) { sj.end <- errors.New("boom") }, StateFailed, "LIG-000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sj := startScripted(t, 2)
			sj.complete("LIG-000")
			reply := sj.hold("")
			tc.settle(sj)
			pv := sj.woken(reply)
			if pv.State != tc.state || ligands(pv) != tc.want {
				t.Fatalf("woken with state %s entries %q, want %s %q", pv.State, ligands(pv), tc.state, tc.want)
			}
			if tc.state == StateRunning {
				sj.finish(nil)
			}
		})
	}
	// Shedding happens to queued jobs: hold a poll on a second job waiting
	// behind the scripted one and shed it the way the dequeue path does.
	t.Run("shed", func(t *testing.T) {
		sj := startScripted(t, 2)
		running := sj.id
		queued, err := sj.s.Submit(ScreenRequest{Library: 2, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		sj.id = queued.ID
		reply := sj.hold("")
		sj.s.mu.Lock()
		sj.s.finishLocked(sj.s.jobs[queued.ID], StateShed, nil, "shed: deadline unmeetable at dequeue")
		sj.s.mu.Unlock()
		if pv := sj.woken(reply); pv.State != StateShed || len(pv.Entries) != 0 {
			t.Fatalf("woken with state %s and %d entries, want shed and none", pv.State, len(pv.Entries))
		}
		sj.id = running
		sj.finish(nil)
	})
}

// TestPartialHoldExpires: nothing settles the job, so the hold ends with
// its wait — an empty delta and the cursor it came with.
func TestPartialHoldExpires(t *testing.T) {
	sj := startScripted(t, 3)
	sj.complete("LIG-000")
	first, _ := sj.partial("since=")
	start := time.Now()
	pv, code := sj.partial("since=" + first.Cursor + "&wait=60ms")
	if el := time.Since(start); code != http.StatusOK || el < 60*time.Millisecond {
		t.Fatalf("status %d after %v, want a 60ms hold", code, el)
	}
	if len(pv.Entries) != 0 || pv.Cursor != first.Cursor || pv.Completed != 1 {
		t.Fatalf("expired hold: %d entries, cursor %q -> %q, completed %d",
			len(pv.Entries), first.Cursor, pv.Cursor, pv.Completed)
	}
	sj.finish(nil)
}

// TestPartialHoldReleased: a held poll ends when its client goes away and
// when the service starts draining, and leaves no goroutine behind.
func TestPartialHoldReleased(t *testing.T) {
	sj := startScripted(t, 2)
	idle := func() bool { return sj.inFlight.Load() == 0 }
	sj.srv.Client().Transport.(*http.Transport).CloseIdleConnections()
	waitFor(t, idle)
	before := runtime.NumGoroutine()

	// Client disconnect.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", sj.srv.URL+"/v1/screens/"+sj.id+"/partial?since=&wait="+longWait, nil)
	gone := make(chan error, 1)
	go func() {
		resp, err := sj.srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	waitFor(t, sj.held)
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v", err)
	}
	waitFor(t, func() bool { return idle() && runtime.NumGoroutine() <= before })

	// Drain: Shutdown answers the held poll at once, while the job it
	// waits for is still running.
	reply := sj.hold("")
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- sj.s.Shutdown(ctx)
	}()
	pv := sj.woken(reply)
	if pv.State != StateRunning || len(pv.Entries) != 0 {
		t.Fatalf("poll released by drain: state %s, %d entries", pv.State, len(pv.Entries))
	}
	// A poll that arrives while draining is not held either.
	start := time.Now()
	if _, code := sj.partial("since=&wait=" + longWait); code != http.StatusOK || time.Since(start) > 2*time.Second {
		t.Fatalf("poll during drain: status %d after %v", code, time.Since(start))
	}
	sj.end <- nil
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	sj.srv.Client().Transport.(*http.Transport).CloseIdleConnections()
	waitFor(t, func() bool { return idle() && runtime.NumGoroutine() <= before })
}

// TestPartialUnrecognisedCursorsServeFromZero: a cursor this process did
// not issue, or one past the end of the log, gets the whole log — the
// caller merges by name, so a replay costs bytes and loses nothing.
func TestPartialUnrecognisedCursorsServeFromZero(t *testing.T) {
	sj := startScripted(t, 3)
	sj.complete("LIG-001")
	sj.complete("LIG-000")
	cur, _ := sj.partial("since=")
	off := cur.Cursor[strings.IndexByte(cur.Cursor, '-'):]
	inc := strings.TrimSuffix(cur.Cursor, off)
	for name, since := range map[string]string{
		"start":             "",
		"other incarnation": "1" + off,
		"past the end":      inc + "-3",
	} {
		pv, code := sj.partial("since=" + since)
		if code != http.StatusOK || ligands(pv) != "LIG-001,LIG-000" || pv.Cursor != cur.Cursor {
			t.Errorf("%s cursor %q: status %d entries %q cursor %q", name, since, code, ligands(pv), pv.Cursor)
		}
	}
	if pv, _ := sj.partial("since=" + cur.Cursor); len(pv.Entries) != 0 {
		t.Errorf("own cursor replayed %d entries", len(pv.Entries))
	}
	sj.finish(nil)
}

// TestPartialCursorAcrossRestart: a job restored from the journal has its
// ranking but no completion log; a cursor issued by the dead process is
// served the full set, and the new process's cursors work from there.
func TestPartialCursorAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(partialRequest)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		jv, _ := s1.Get(v.ID)
		return jv.State == StateDone
	})
	old, err := s1.Partial(context.Background(), v.ID, PartialQuery{Page: DefaultPage(), Delta: true})
	if err != nil || len(old.Entries) != partialRequest.Library {
		t.Fatalf("first process served %d entries (%v)", len(old.Entries), err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestService(t, durableConfig(dir), nil)
	since, err := parseCursor(old.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := s2.Partial(context.Background(), v.ID, PartialQuery{Page: DefaultPage(), Delta: true, Since: since, Wait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(pv.Entries) != partialRequest.Library || pv.State != StateDone || pv.Completed != partialRequest.Library {
		t.Fatalf("restored job served %d entries to a stale cursor, state %s", len(pv.Entries), pv.State)
	}
	seen := map[string]bool{}
	for _, e := range pv.Entries {
		seen[e.Ligand] = true
	}
	if len(seen) != partialRequest.Library {
		t.Fatalf("restored set names %d distinct ligands", len(seen))
	}
	since, _ = parseCursor(pv.Cursor)
	if again, _ := s2.Partial(context.Background(), v.ID, PartialQuery{Page: DefaultPage(), Delta: true, Since: since}); len(again.Entries) != 0 {
		t.Fatalf("new process's own cursor replayed %d entries", len(again.Entries))
	}
}

// TestPartialQueryValidation: the query is judged before the job is
// looked up, so a malformed one is a 400 even for an unknown job, and a
// request with neither new parameter carries none of the new fields.
func TestPartialQueryValidation(t *testing.T) {
	for _, q := range []string{"since=-5", "since=zz-1", "since=ab", "since=ab-", "since=ab--1", "wait=-1s", "wait=soon", "wait=5", "limit=0", "offset=-1"} {
		vals, _ := url.ParseQuery(q)
		if _, err := ParsePartialQuery(vals); err == nil {
			t.Errorf("ParsePartialQuery(%q) accepted", q)
		}
	}
	vals, _ := url.ParseQuery("wait=1h&since=ab-12&limit=7")
	pq, err := ParsePartialQuery(vals)
	if err != nil || pq.Wait != MaxPartialWait || !pq.Delta || pq.Since != (cursor{inc: 0xab, off: 12}) || pq.Page.Limit != 7 {
		t.Errorf("ParsePartialQuery = %+v, %v; want wait clamped to %v", pq, err, MaxPartialWait)
	}
	if pq, _ := ParsePartialQuery(url.Values{}); pq.Delta || pq.Wait != 0 || pq.Page != DefaultPage() {
		t.Errorf("empty query parsed as %+v", pq)
	}

	sj := startScripted(t, 2)
	sj.complete("LIG-000")
	for _, target := range []string{sj.id, "nope"} {
		resp, err := sj.srv.Client().Get(sj.srv.URL + "/v1/screens/" + target + "/partial?since=-5")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || body["error"] == "" {
			t.Errorf("job %q, since=-5: status %d body %v, want 400 with an error", target, resp.StatusCode, body)
		}
	}
	if _, code := sj.partial("wait=1ms&since=zz"); code != http.StatusBadRequest {
		t.Errorf("malformed since with a wait: status %d", code)
	}

	resp, err := sj.srv.Client().Get(sj.srv.URL + "/v1/screens/" + sj.id + "/partial")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if _, ok := raw["cursor"]; ok {
		t.Error("parameter-less response carries a cursor")
	}
	// wait alone holds and then answers in the classic sorted, ranked form.
	pv, _ := sj.partial("wait=20ms")
	if len(pv.Entries) != 1 || pv.Entries[0].Rank != 1 || pv.Cursor != "" {
		t.Errorf("wait-only response: %+v", pv)
	}
	sj.finish(nil)
}
