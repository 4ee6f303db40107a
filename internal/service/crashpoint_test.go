package service

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
)

// The ALICE-style crash-point explorer: run a fixed submit -> checkpoint
// -> finish workload once under a recording fsim to learn how many
// mutating filesystem operations (writes, syncs, renames, removes) it
// performs, then replay it once per operation with a deterministic
// crash@opK plan — simulating a power loss at every write/sync/rename
// boundary, which also drops every byte a file received after its last
// successful fsync, so a missing fsync shows up as a lost record —
// recover each frozen data dir into a fresh Server, and assert the
// durability invariants:
//
//   - no acknowledged job is lost: every submission that returned nil
//     error in the crashed run exists after recovery;
//   - no terminal regression: after the recovered service drains, every
//     acknowledged job is done (never failed, shed or vanished), except
//     the one whose cancel was acknowledged, which is cancelled;
//   - resumed rankings are byte-identical to the uninterrupted run's.

// explorerSeed keys every fsim in the explorer; the decision log (and
// therefore every crashed disk image) is a pure function of it.
const explorerSeed = 424242

// explorerRequests is the workload: nine distinct screens, each with an
// idempotency key, submitted sequentially (each waits for the previous to
// finish, so the mutating-op sequence is deterministic). A job costs two
// operations (write, fsync) per journal record — submitted, started, one
// checkpoint record per ligand, terminal — so nine of them keep the sweep
// above its 100-point floor.
func explorerRequests() []ScreenRequest {
	reqs := make([]ScreenRequest, 9)
	for i := range reqs {
		reqs[i] = recoveryRequest
		reqs[i].Seed = uint64(7 + i)
	}
	return reqs
}

// rankingBytes is the byte-identity fingerprint of a job's ranking.
func rankingBytes(t *testing.T, v JobView) []byte {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s has no result", v.ID)
	}
	b, err := json.Marshal(v.Result.Ranking)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// explorerCancelKey is the workload's last screen, cancelled from its
// first journaled checkpoint record.
const explorerCancelKey = "explore-cancel"

// explorerOutcome is what one run of the workload was acknowledged.
type explorerOutcome struct {
	acked       map[string]string // idempotency key -> job ID
	cancelAcked bool              // the cancel step got its 202
	cancelMark  uint64            // mutating ops done before the cancel
}

// runExplorerWorkload submits the workload sequentially against s,
// waiting for each acknowledged job to reach a terminal state before the
// next submission, then a last screen that a cancel ends after its first
// checkpoint record. Submissions shed after a simulated crash are not
// acknowledged and not returned; neither is a refused cancel. ops reads
// the filesystem's mutating-op counter.
func runExplorerWorkload(s *Service, ops func() uint64) explorerOutcome {
	out := explorerOutcome{acked: make(map[string]string)}
	reqs := explorerRequests()
	cancelReq := recoveryRequest
	cancelReq.Seed = 99
	s.mu.Lock()
	s.checkpointHook = func(id string, newly int) {
		s.mu.Lock()
		last := s.jobs[id].req.Seed == cancelReq.Seed
		s.mu.Unlock()
		if last && newly == 1 {
			out.cancelMark = ops()
			_, err := s.Cancel(id)
			out.cancelAcked = err == nil
		}
	}
	s.mu.Unlock()
	for i, req := range append(reqs, cancelReq) {
		key := fmt.Sprintf("explore-%d", i)
		if i == len(reqs) {
			key = explorerCancelKey
		}
		v, _, err := s.SubmitIdem(req, key)
		if err != nil {
			continue
		}
		out.acked[key] = v.ID
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			got, gerr := s.Get(v.ID)
			if gerr == nil && got.State.Terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

func TestCrashPointExplorer(t *testing.T) {
	// Recording run: clean pass-through fsim counts the mutating ops and
	// produces the reference rankings every recovered run must reproduce.
	refDir := t.TempDir()
	recorder := fsim.New(fsim.Plan{}, fsim.Config{Seed: explorerSeed})
	cfg := durableConfig(refDir)
	cfg.FS = recorder
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := runExplorerWorkload(s, recorder.MutatingOps)
	if want := len(explorerRequests()) + 1; len(clean.acked) != want || !clean.cancelAcked {
		t.Fatalf("clean run acknowledged %d jobs (cancel %v), want %d and the cancel", len(clean.acked), clean.cancelAcked, want)
	}
	reference := make(map[string][]byte) // idempotency key -> ranking bytes
	for key, id := range clean.acked {
		v, err := s.Get(id)
		if key == explorerCancelKey {
			if err != nil || v.State != StateCancelled {
				t.Fatalf("clean run's cancelled job %s: %+v (%v)", id, v, err)
			}
			continue
		}
		if err != nil || v.State != StateDone {
			t.Fatalf("clean run job %s: %+v (%v)", id, v, err)
		}
		reference[key] = rankingBytes(t, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	total := int(recorder.MutatingOps())
	if total < 100 {
		t.Fatalf("workload performs %d mutating ops; explorer needs >= 100 crash points", total)
	}
	// A regression case: a power loss at the fsync of the cancel's record
	// must not leave a 202 behind that recovery forgets.
	t.Run("unjournaled_cancel", func(t *testing.T) { exploreNodeCrash(t, int(clean.cancelMark)+2, reference) })

	// Bound the sweep so the test stays proportionate: every point in
	// -short mode would be excessive, every point above ~400 likewise.
	stride := 1
	if testing.Short() {
		stride = (total + 24) / 25
	} else if total > 400 {
		stride = total / 400
	}
	t.Logf("exploring %d crash points (of %d mutating ops, stride %d)", (total+stride-1)/stride, total, stride)
	for k := 1; k <= total; k += stride {
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) { exploreNodeCrash(t, k, reference) })
	}
}

// exploreNodeCrash runs the workload with a power loss at mutating op k,
// recovers the frozen dir into a fresh Service and checks the invariants.
func exploreNodeCrash(t *testing.T, k int, reference map[string][]byte) {
	dir := t.TempDir()

	// Crashed run: identical workload, identical seed, power loss at
	// mutating op k. Every filesystem mutation after the crash point
	// fails, so the disk image is frozen mid-operation.
	plan, err := fsim.ParsePlan(fmt.Sprintf("*:crash@op%d", k))
	if err != nil {
		t.Fatal(err)
	}
	faulty := fsim.New(plan, fsim.Config{Seed: explorerSeed})
	cfg := durableConfig(dir)
	cfg.FS = faulty
	var out explorerOutcome
	cs, err := New(cfg)
	if err == nil {
		out = runExplorerWorkload(cs, faulty.MutatingOps)
		cs.crashForTest()
	}
	// A New that failed crashed during boot: nothing acknowledged.

	// Recovery: a fresh Service over the frozen dir with a healthy disk
	// must boot (quarantining damage, never failing) and finish every
	// acknowledged job: done with the reference ranking, or cancelled if
	// (and only if) its cancel was acknowledged.
	rs, err := New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery boot failed after crash at op %d: %v", k, err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rs.Shutdown(ctx)
	}()
	for key, id := range out.acked {
		if _, err := rs.Get(id); err != nil {
			t.Fatalf("acknowledged job %s (%s) lost after crash at op %d: %v", id, key, k, err)
		}
	}
	for key, id := range out.acked {
		waitFor(t, func() bool {
			v, err := rs.Get(id)
			return err == nil && v.State.Terminal()
		})
		v, err := rs.Get(id)
		want := StateDone
		if key == explorerCancelKey && out.cancelAcked {
			want = StateCancelled
		}
		if err != nil || v.State != want {
			t.Fatalf("job %s (%s) recovered into state %q (%v), want %s", id, key, v.State, err, want)
		}
		if ref, ok := reference[key]; ok {
			if got := rankingBytes(t, v); string(got) != string(ref) {
				t.Fatalf("job %s (%s) ranking diverged after crash at op %d:\n got %s\nwant %s", id, key, k, got, ref)
			}
		}
	}
}

// TestExplorerWorkloadDeterministic guards the explorer's foundation: two
// clean runs of the workload perform the identical number of mutating
// filesystem operations, so crash@opK lands on the same boundary run to
// run.
func TestExplorerWorkloadDeterministic(t *testing.T) {
	ops := func() uint64 {
		dir := t.TempDir()
		rec := fsim.New(fsim.Plan{}, fsim.Config{Seed: explorerSeed})
		cfg := durableConfig(dir)
		cfg.FS = rec
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(runExplorerWorkload(s, rec.MutatingOps).acked), len(explorerRequests())+1; got != want {
			t.Fatalf("acknowledged %d jobs, want %d", got, want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if rec.MutatingOps() == 0 {
			t.Fatal("recorder saw no mutating ops")
		}
		return rec.MutatingOps()
	}
	a := ops()
	b := ops()
	if a != b {
		t.Fatalf("mutating-op counts differ between identical runs: %d vs %d", a, b)
	}
}
