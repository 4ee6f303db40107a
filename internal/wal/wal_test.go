package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
)

// reopen closes j and opens the same directory again.
func reopen(t *testing.T, j *Journal, dir string, opts Options) (*Journal, RecoveryInfo) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	nj, info, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nj, info
}

// replayAll collects every record.
func replayAll(t *testing.T, j *Journal) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := j.Replay(func(rec []byte) error {
		cp := make([]byte, len(rec))
		copy(cp, rec)
		recs = append(recs, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.Segments != 1 {
		t.Fatalf("fresh journal recovery = %+v", info)
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(""), []byte(`{"b":2}`), bytes.Repeat([]byte("x"), 4096)}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, j)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d: %q != %q", i, got[i], want[i])
		}
	}

	// Reopen: everything survives, byte for byte.
	j, info = reopen(t, j, dir, Options{})
	defer j.Close()
	if info.Records != len(want) || info.TruncatedBytes != 0 {
		t.Fatalf("recovery after clean close = %+v", info)
	}
	got = replayAll(t, j)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("post-reopen record %d differs", i)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 64, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%02d-padding-padding", i))
		want = append(want, rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(fsim.OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no rotation happened: %v", segs)
	}
	got := replayAll(t, j)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d lost order across rotation", i)
		}
	}
	j, info := reopen(t, j, dir, Options{SegmentBytes: 64})
	defer j.Close()
	if info.Records != len(want) || info.Segments != len(segs) {
		t.Errorf("recovery across segments = %+v, want %d records in %d segments",
			info, len(want), len(segs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendFrame(nil, []byte("never finished"))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var warned bool
	j2, info, err := Open(dir, Options{Logf: func(string, ...any) { warned = true }})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.Records != 3 {
		t.Errorf("recovered %d records, want 3", info.Records)
	}
	if info.TruncatedBytes != int64(len(torn)-3) {
		t.Errorf("truncated %d bytes, want %d", info.TruncatedBytes, len(torn)-3)
	}
	if !warned {
		t.Error("torn tail recovered silently, want a warning")
	}
	// The tail really is gone from disk, and appends continue cleanly.
	if err := j2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, j2)
	if len(recs) != 4 || string(recs[3]) != "after-recovery" {
		t.Fatalf("post-recovery replay = %d records (%q last)", len(recs), recs[len(recs)-1])
	}
}

func TestBitFlipDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 48, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-number-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(fsim.OSFS(), dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v", segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit in the second segment: its prefix survives, the
	// rest of that segment and every later segment are dropped.
	path := filepath.Join(dir, segmentName(segs[1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, info, err := Open(dir, Options{SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.QuarantinedSegments != len(segs)-2 {
		t.Errorf("quarantined %d segments, want %d", info.QuarantinedSegments, len(segs)-2)
	}
	if info.TruncatedBytes == 0 {
		t.Error("bit flip not counted as truncation")
	}
	recs := replayAll(t, j2)
	if len(recs) != info.Records {
		t.Fatalf("replay sees %d records, recovery reported %d", len(recs), info.Records)
	}
	// The prefix is intact and in order.
	for i, rec := range recs {
		if want := fmt.Sprintf("record-number-%02d", i); string(rec) != want {
			t.Errorf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 64, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := j.Append([]byte(fmt.Sprintf("history-%02d-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Size()
	live := [][]byte{[]byte("snap-a"), []byte("snap-b")}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= before {
		t.Errorf("size %d not reduced from %d", j.Size(), before)
	}
	segs, _ := listSegments(fsim.OSFS(), dir)
	if len(segs) != 1 {
		t.Fatalf("compaction left %v segments", segs)
	}
	// Replay is the snapshot, and appends continue after it.
	if err := j.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, j)
	want := []string{"snap-a", "snap-b", "post-compact"}
	if len(recs) != len(want) {
		t.Fatalf("replay after compact = %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if string(recs[i]) != w {
			t.Errorf("record %d = %q, want %q", i, recs[i], w)
		}
	}
	// Survives reopen.
	j, info := reopen(t, j, dir, Options{})
	defer j.Close()
	if info.Records != 3 {
		t.Errorf("recovery after compaction = %+v", info)
	}
}

func TestOpenRemovesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, segmentName(7)+".tmp")
	if err := os.WriteFile(stale, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale compaction temp file survived Open")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"ALWAYS", SyncAlways, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}

	// Each policy still journals durably enough to survive a clean close.
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		j, _, err := Open(dir, Options{Policy: p, SyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := j.Append([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		j, info := reopen(t, j, dir, Options{Policy: p})
		j.Close()
		if info.Records != 5 {
			t.Errorf("policy %v: %d records after reopen", p, info.Records)
		}
	}
}

// syncCounter counts successful file fsyncs through an fsim.FS.
type syncCounter struct {
	fsim.FS
	syncs atomic.Int64
}

func (c *syncCounter) OpenFile(path string, flag int, perm os.FileMode) (fsim.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return countedFile{File: f, syncs: &c.syncs}, nil
}

type countedFile struct {
	fsim.File
	syncs *atomic.Int64
}

func (f countedFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.syncs.Add(1)
	}
	return err
}

// TestIntervalFlushSyncsIdleJournal: under SyncInterval an append inside
// the interval is left unsynced, and a one-shot background flush syncs it
// one interval later although no other append arrives; Close stops a
// pending flush and leaves no goroutine behind.
func TestIntervalFlushSyncsIdleJournal(t *testing.T) {
	before := runtime.NumGoroutine()
	fs := &syncCounter{FS: fsim.OSFS()}
	j, _, err := Open(t.TempDir(), Options{Policy: SyncInterval, SyncInterval: 200 * time.Millisecond, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	base := fs.syncs.Load()
	if err := j.Append([]byte("idle")); err != nil {
		t.Fatal(err)
	}
	if n := fs.syncs.Load(); n != base {
		t.Fatalf("append right after Open synced (%d syncs)", n-base)
	}
	for deadline := time.Now().Add(10 * time.Second); fs.syncs.Load() == base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("idle journal never synced its last append")
		}
	}
	j.mu.Lock()
	dirty := j.dirty
	j.mu.Unlock()
	if dirty {
		t.Error("journal still dirty after the background flush")
	}

	// The next append finds the flush's sync recent and arms a new one,
	// which Close stops.
	if err := j.Append([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	armed := j.flush != nil
	j.mu.Unlock()
	if !armed {
		t.Fatal("unsynced append armed no flush")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	armed = j.flush != nil
	j.mu.Unlock()
	if armed {
		t.Error("Close left the flush armed")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
	}
}

func TestAppendTooLarge(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestClosedJournalRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")); err == nil {
		t.Error("append after close accepted")
	}
	if err := j.Compact(nil); err == nil {
		t.Error("compact after close accepted")
	}
	if err := j.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
