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
//     acknowledged job is done (never failed, shed or vanished);
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

// runExplorerWorkload submits the workload sequentially against s,
// waiting for each acknowledged job to reach a terminal state before the
// next submission. It returns the acknowledged job IDs by idempotency
// key. Submissions shed after a simulated crash are not acknowledged and
// not returned.
func runExplorerWorkload(s *Service) map[string]string {
	acked := make(map[string]string)
	for i, req := range explorerRequests() {
		key := fmt.Sprintf("explore-%d", i)
		v, _, err := s.SubmitIdem(req, key)
		if err != nil {
			continue
		}
		acked[key] = v.ID
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			got, gerr := s.Get(v.ID)
			if gerr == nil && got.State.Terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return acked
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
	acked := runExplorerWorkload(s)
	if want := len(explorerRequests()); len(acked) != want {
		t.Fatalf("clean run acknowledged %d jobs, want %d", len(acked), want)
	}
	reference := make(map[string][]byte) // idempotency key -> ranking bytes
	for key, id := range acked {
		v, err := s.Get(id)
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
	// Bound the sweep so the test stays proportionate: every point in
	// -short mode would be excessive, every point above ~400 likewise.
	stride := 1
	if testing.Short() {
		stride = (total + 24) / 25
	} else if total > 400 {
		stride = total / 400
	}
	t.Logf("exploring %d crash points (of %d mutating ops, stride %d)", (total+stride-1)/stride, total, stride)

	explored := 0
	for k := 1; k <= total; k += stride {
		explored++
		k := k
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) {
			dir := t.TempDir()

			// Crashed run: identical workload, identical seed, power loss
			// at mutating op k. Every filesystem mutation after the crash
			// point fails, so the disk image is frozen mid-operation.
			plan, err := fsim.ParsePlan(fmt.Sprintf("*:crash@op%d", k))
			if err != nil {
				t.Fatal(err)
			}
			faulty := fsim.New(plan, fsim.Config{Seed: explorerSeed})
			cfg := durableConfig(dir)
			cfg.FS = faulty
			var acked map[string]string
			cs, err := New(cfg)
			if err == nil {
				acked = runExplorerWorkload(cs)
				cs.crashForTest()
			}
			// A New that failed crashed during boot: nothing acknowledged.

			// Recovery: a fresh Server over the frozen dir with a healthy
			// disk must boot (quarantining damage, never failing) and
			// finish every acknowledged job with the reference ranking.
			rs, err := New(durableConfig(dir))
			if err != nil {
				t.Fatalf("recovery boot failed after crash at op %d: %v", k, err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				rs.Shutdown(ctx)
			}()
			for key, id := range acked {
				if _, err := rs.Get(id); err != nil {
					t.Fatalf("acknowledged job %s (%s) lost after crash at op %d: %v", id, key, k, err)
				}
			}
			for key, id := range acked {
				key, id := key, id
				waitFor(t, func() bool {
					v, err := rs.Get(id)
					return err == nil && v.State.Terminal()
				})
				v, err := rs.Get(id)
				if err != nil || v.State != StateDone {
					t.Fatalf("job %s (%s) recovered into state %q (%v), want done", id, key, v.State, err)
				}
				if got := rankingBytes(t, v); string(got) != string(reference[key]) {
					t.Fatalf("job %s (%s) ranking diverged after crash at op %d:\n got %s\nwant %s",
						id, key, k, got, reference[key])
				}
			}
		})
	}
	t.Logf("explored %d crash points, all invariants held", explored)
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
		if got, want := len(runExplorerWorkload(s)), len(explorerRequests()); got != want {
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
