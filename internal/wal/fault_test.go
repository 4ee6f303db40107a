package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"github.com/metascreen/metascreen/internal/fsim"
)

func mustPlan(t *testing.T, spec string) fsim.Plan {
	t.Helper()
	p, err := fsim.ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

// ioCounter collects OnIOError calls by op label.
type ioCounter struct {
	mu  sync.Mutex
	ops map[string]int
}

func (c *ioCounter) hook() func(op string, err error) {
	return func(op string, err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.ops == nil {
			c.ops = map[string]int{}
		}
		c.ops[op]++
	}
}

func (c *ioCounter) get(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[op]
}

// TestFailStopAndRecoverENOSPC drives the journal into a full disk,
// verifies fail-stop stickiness, frees space, and proves Recover returns
// it to service with no acknowledged record lost and no phantom record.
func TestFailStopAndRecoverENOSPC(t *testing.T) {
	dir := t.TempDir()
	faulty := fsim.New(mustPlan(t, "*:enospc@256"), fsim.Config{Seed: 1})
	j, _, err := Open(dir, Options{Policy: SyncAlways, FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var acked []string
	i := 0
	for ; ; i++ {
		rec := fmt.Sprintf("record-%03d-with-some-padding-bytes", i)
		if err := j.Append([]byte(rec)); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d err = %v, want ENOSPC", i, err)
			}
			break
		}
		acked = append(acked, rec)
	}
	if len(acked) == 0 {
		t.Fatal("disk filled before any append succeeded; budget too small")
	}
	if j.failed == nil {
		t.Fatal("journal not fail-stopped after ENOSPC")
	}
	// Sticky: the next append fails immediately without touching the disk.
	if err := j.Append([]byte("x")); err == nil {
		t.Fatal("append on fail-stopped journal succeeded")
	}
	// Recover's probe fsync writes nothing, so it can succeed on a full
	// disk — but the next append immediately re-enters fail-stop.
	if err := j.Recover(); err != nil {
		t.Fatalf("Recover on full disk: %v", err)
	}
	if err := j.Append([]byte("still-full")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on still-full disk err = %v, want ENOSPC", err)
	}
	if j.failed == nil {
		t.Fatal("journal not re-fail-stopped on still-full disk")
	}

	faulty.FreeSpace()
	if err := j.Recover(); err != nil {
		t.Fatalf("Recover after FreeSpace: %v", err)
	}
	if j.failed != nil {
		t.Fatalf("Failed() = %v after successful Recover", j.failed)
	}
	post := "post-recover-record"
	if err := j.Append([]byte(post)); err != nil {
		t.Fatalf("append after Recover: %v", err)
	}
	acked = append(acked, post)

	// Reopen from disk: exactly the acknowledged records replay.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.TruncatedBytes != 0 {
		t.Errorf("reopen found %d torn bytes; Recover should have truncated them", info.TruncatedBytes)
	}
	var got []string
	if err := j2.Replay(func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acked) {
		t.Fatalf("replayed %d records, acknowledged %d", len(got), len(acked))
	}
	for i := range got {
		if got[i] != acked[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], acked[i])
		}
	}
}

// TestFsyncFailureFailStops checks fsyncgate semantics: a failed fsync
// fail-stops the segment rather than silently retrying the poisoned fd.
func TestFsyncFailureFailStops(t *testing.T) {
	dir := t.TempDir()
	faulty := fsim.New(mustPlan(t, "*.wal:fsync-fail@1"), fsim.Config{Seed: 1})
	var c ioCounter
	j, _, err := Open(dir, Options{Policy: SyncAlways, FS: faulty, OnIOError: c.hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	err = j.Append([]byte("rec"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("append err = %v, want EIO from fsync", err)
	}
	if j.failed == nil {
		t.Fatal("journal not fail-stopped after fsync failure")
	}
	if c.get("sync") == 0 {
		t.Fatal("OnIOError not called for sync failure")
	}
	// The unacknowledged frame is excluded from the acknowledged size.
	if j.Size() != 0 {
		t.Fatalf("Size() = %d after unacknowledged append, want 0", j.Size())
	}
}

// TestQuarantinePreservesCorruptBytes verifies satellite behavior: a
// corrupt mid-WAL segment's tail and every later segment end up under
// quarantine/ instead of being deleted.
func TestQuarantinePreservesCorruptBytes(t *testing.T) {
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
		t.Fatalf("quarantined %d segments, want %d", info.QuarantinedSegments, len(segs)-2)
	}

	// The corrupt tail bytes are preserved verbatim.
	tail, err := os.ReadFile(filepath.Join(dir, quarantineDir, segmentName(segs[1])+".tail"))
	if err != nil {
		t.Fatalf("quarantined tail missing: %v", err)
	}
	if len(tail) != int(info.TruncatedBytes) {
		t.Errorf("quarantined tail is %d bytes, truncation reported %d", len(tail), info.TruncatedBytes)
	}
	// Every later segment was moved, not deleted.
	for _, idx := range segs[2:] {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, segmentName(idx))); err != nil {
			t.Errorf("segment %s not in quarantine: %v", segmentName(idx), err)
		}
		if _, err := os.Stat(filepath.Join(dir, segmentName(idx))); !os.IsNotExist(err) {
			t.Errorf("segment %s still present in journal dir", segmentName(idx))
		}
	}
}

// removeFailFS fails every Remove; syncDirFailFS fails every SyncDir.
// These target specific ops without disturbing Open's segment reads the
// way a glob-matched eio rule would.
type removeFailFS struct{ fsim.FS }

func (removeFailFS) Remove(string) error { return syscall.EIO }

type syncDirFailFS struct{ fsim.FS }

func (syncDirFailFS) SyncDir(string) error { return syscall.EIO }

// TestCompactRemoveErrorCounted: Compact's old-segment removal failures
// are absorbed but must be logged and counted, never swallowed silently.
func TestCompactRemoveErrorCounted(t *testing.T) {
	dir := t.TempDir()
	var c ioCounter
	j, _, err := Open(dir, Options{SegmentBytes: 64, Policy: SyncNever,
		FS: removeFailFS{fsim.OSFS()}, OnIOError: c.hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("history-%02d-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([][]byte{[]byte("snap")}); err != nil {
		t.Fatalf("Compact must absorb remove failures, got %v", err)
	}
	if c.get("remove") == 0 {
		t.Fatal("old-segment remove failure not counted via OnIOError")
	}
	// The journal stays usable; the orphan old segments replay before the
	// snapshot and converge on it.
	if err := j.Append([]byte("post")); err != nil {
		t.Fatalf("append after leaky compact: %v", err)
	}
}

// TestDirSyncErrorCounted: directory fsync failures on the compact path
// must surface through OnIOError rather than vanish.
func TestDirSyncErrorCounted(t *testing.T) {
	dir := t.TempDir()
	var c ioCounter
	// Default SegmentBytes: no rotation, so the only dir syncs are
	// compaction's.
	j, _, err := Open(dir, Options{Policy: SyncNever,
		FS: syncDirFailFS{fsim.OSFS()}, OnIOError: c.hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("history-%02d-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The pre-retirement dir sync failure is fatal to the compaction (the
	// snapshot's durability is unproven) and must be counted.
	if err := j.Compact([][]byte{[]byte("snap")}); err == nil {
		t.Fatal("Compact succeeded although the snapshot's dir entry never synced")
	}
	if c.get("dirsync") == 0 {
		t.Fatal("dirsync failure not counted via OnIOError")
	}
}

// TestTornWriteRecovery: a torn append (injected partial write) must not
// corrupt recovery — reopen truncates the torn frame and keeps the
// acknowledged prefix.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	faulty := fsim.New(mustPlan(t, "*.wal:torn-write@1"), fsim.Config{Seed: 11})
	j, _, err := Open(dir, Options{Policy: SyncNever, FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	err = j.Append([]byte("a-record-long-enough-to-tear-somewhere"))
	if err == nil {
		t.Fatal("torn write did not error")
	}
	if j.failed == nil {
		t.Fatal("journal not fail-stopped after torn write")
	}
	j.Close()

	j2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.Records != 0 {
		t.Fatalf("recovered %d records from an unacknowledged torn append, want 0", info.Records)
	}
	if err := j2.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after torn-write recovery: %v", err)
	}
}
