package wal

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
)

// logRec is the event type of the Log tests.
type logRec struct {
	N   int    `json:"n"`
	Pad string `json:"pad"`
}

// TestLogCompactionIsLogarithmic: against a snapshot that grows with
// every append — a state that only accumulates, the worst case — the
// compaction count over 10 000 appends stays within a small constant of
// log2(final size / floor), so compaction work is amortised O(1) per
// append. The rule it replaces (compact whenever the journal is past the
// floor) compacts on every append once the state alone is past it. The
// compacted log replays to the full state.
func TestLogCompactionIsLogarithmic(t *testing.T) {
	const appends, floor = 10_000, 4 << 10
	dir := t.TempDir()
	var state []logRec
	compactions := 0
	l, _, err := OpenLog(dir, LogConfig[logRec]{
		Options:      Options{Policy: SyncNever},
		CompactBytes: floor,
		Snapshot:     func() []logRec { return state },
		OnCompact:    func() { compactions++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < appends; i++ {
		r := logRec{N: i, Pad: "0123456789abcdef"}
		state = append(state, r)
		if !l.Append(r) {
			t.Fatalf("append %d did not land", i)
		}
	}
	size := l.j.Size()
	bound := int(math.Log2(float64(size)/floor)) + 2
	t.Logf("%d appends, final journal %d B: %d compactions (log2 bound %d)", appends, size, compactions, bound)
	if compactions < 1 || compactions > bound {
		t.Fatalf("%d compactions over %d appends to a %d B journal, want 1..%d", compactions, appends, size, bound)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed []logRec
	reopened, _, err := OpenLog(dir, LogConfig[logRec]{Apply: func(r logRec) { replayed = append(replayed, r) }})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(replayed) != appends || replayed[appends-1].N != appends-1 {
		t.Fatalf("replayed %d records, want %d", len(replayed), appends)
	}
}

// TestLogDegradesAndProbesBack: a full disk degrades the log — the
// append reports it did not land, later appends are skipped and counted,
// Full fires and Status names the reason — and a probe after space frees
// recovers it, rate-limited to one per StorageProbeInterval, with a
// compaction that journals the state the skipped append left out. The
// state is last-write-wins: the latest record.
func TestLogDegradesAndProbesBack(t *testing.T) {
	dir := t.TempDir()
	faulty := fsim.New(mustPlan(t, "*:enospc@512"), fsim.Config{Seed: 1})
	now := time.Unix(1_700_000_000, 0)
	var latest logRec
	var skips, errs, recoveries int
	l, _, err := OpenLog(dir, LogConfig[logRec]{
		Options:      Options{FS: faulty},
		CompactBytes: 1 << 20,
		Snapshot:     func() []logRec { return []logRec{latest} },
		Now:          func() time.Time { return now },
		OnSkip:       func() { skips++ },
		OnError:      func() { errs++ },
		OnRecover:    func() { recoveries++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	landed := 0
	for i := 0; ; i++ {
		latest = logRec{N: i, Pad: "0123456789abcdef"}
		if !l.Append(latest) {
			break
		}
		landed++
	}
	if landed == 0 {
		t.Fatal("the disk filled before any append landed")
	}
	now = now.Add(3 * time.Second)
	if st := l.Status(); !st.Degraded || st.Reason != "disk_full" || st.SinceSeconds != 3 {
		t.Fatalf("Status() = %+v, want degraded for 3s with reason disk_full", st)
	}
	// A full disk gets no retry: one error, no recovery.
	if errs != 1 || recoveries != 0 {
		t.Fatalf("errors %d, recoveries %d after the disk filled; want 1, 0", errs, recoveries)
	}
	// Bigger than the failed record, so its compaction cannot fit in what
	// is left of the full disk either.
	latest = logRec{N: -1, Pad: strings.Repeat("x", 64)}
	if l.Append(latest) || skips != 1 {
		t.Fatalf("an append while degraded landed or was not counted as skipped (%d skips)", skips)
	}

	// The first probe runs (and fails: the disk is still full); the next
	// one inside the interval does not even try.
	if l.Probe() || l.Probe() {
		t.Fatal("a probe recovered a full disk")
	}
	faulty.FreeSpace()
	if l.Probe() {
		t.Fatal("a probe inside the rate limit ran")
	}
	now = now.Add(StorageProbeInterval)
	if !l.Probe() || l.Status().Degraded || recoveries != 1 {
		t.Fatalf("the probe after freeing space did not recover (status %+v, %d recoveries)", l.Status(), recoveries)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var replayed []logRec
	reopened, _, err := OpenLog(dir, LogConfig[logRec]{Apply: func(r logRec) { replayed = append(replayed, r) }})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(replayed) != 1 || replayed[0] != latest {
		t.Fatalf("replayed %+v after the probe's compaction, want the skipped record %+v", replayed, latest)
	}
}
