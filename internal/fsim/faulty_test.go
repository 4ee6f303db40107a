package fsim

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func mustPlan(t *testing.T, spec string) Plan {
	t.Helper()
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

// scriptOps runs a fixed operation sequence through fs rooted at dir,
// ignoring injected errors — the workload for the replay-identity test.
func scriptOps(t *testing.T, fs *Faulty, dir string) {
	t.Helper()
	sub := filepath.Join(dir, "journal")
	fs.MkdirAll(sub, 0o755)
	for i := 0; i < 4; i++ {
		p := filepath.Join(sub, "seg.wal")
		f, err := fs.OpenFile(p, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			continue
		}
		f.Write([]byte("record-payload-bytes"))
		f.Sync()
		f.Close()
		fs.ReadFile(p)
	}
	tmp := filepath.Join(sub, "snap.tmp")
	if f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644); err == nil {
		f.Write([]byte("snapshot"))
		f.Sync()
		f.Close()
	}
	fs.Rename(tmp, filepath.Join(sub, "snap"))
	fs.SyncDir(sub)
	fs.Remove(filepath.Join(sub, "snap"))
}

// TestReplayIdentity is the determinism contract: the same seed, plan
// and operation sequence produce the identical decision log, run to run.
func TestReplayIdentity(t *testing.T) {
	plan := mustPlan(t, "*:eio@0.3,*:fsync-fail@0.4,*:torn-write@0.2,*:bitrot@0.5")
	dir := t.TempDir()

	run := func() []Decision {
		os.RemoveAll(dir)
		os.MkdirAll(dir, 0o755)
		fs := New(plan, Config{Seed: 42})
		scriptOps(t, fs, dir)
		return fs.Decisions()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}
	if len(first) != len(second) {
		t.Fatalf("decision counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
	// A different seed must not replay the same log (overwhelmingly).
	os.RemoveAll(dir)
	os.MkdirAll(dir, 0o755)
	other := New(plan, Config{Seed: 43})
	scriptOps(t, other, dir)
	o := other.Decisions()
	same := len(o) == len(first)
	if same {
		for i := range o {
			if o[i] != first[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 43 replayed seed 42's decision log exactly")
	}
}

func TestEIOWrite(t *testing.T) {
	dir := t.TempDir()
	fs := New(mustPlan(t, "*:eio@1"), Config{Seed: 1})
	f, err := fs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("write err = %v, want EIO", err)
	}
}

func TestENOSPCBudgetAndFreeSpace(t *testing.T) {
	dir := t.TempDir()
	fs := New(mustPlan(t, "*:enospc@10"), Config{Seed: 1})
	f, err := fs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("12345")); err != nil {
		t.Fatalf("first write within budget failed: %v", err)
	}
	if _, err := f.Write([]byte("123456")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-budget write err = %v, want ENOSPC", err)
	}
	// Disk-full is sticky until space is freed.
	if _, err := f.Write([]byte("123456")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("still-full write err = %v, want ENOSPC", err)
	}
	fs.FreeSpace()
	if _, err := f.Write([]byte("12345")); err != nil {
		t.Fatalf("write after FreeSpace failed: %v", err)
	}
}

func TestFsyncFail(t *testing.T) {
	dir := t.TempDir()
	fs := New(mustPlan(t, "*:fsync-fail@1"), Config{Seed: 1})
	f, err := fs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync err = %v, want EIO", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("dirsync err = %v, want EIO", err)
	}
}

func TestTornWritePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := New(mustPlan(t, "*:torn-write@1"), Config{Seed: 7})
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	payload := []byte("the-whole-record-that-should-tear")
	n, werr := f.Write(payload)
	f.Close()
	if !errors.Is(werr, syscall.EIO) {
		t.Fatalf("torn write err = %v, want EIO", werr)
	}
	if n >= len(payload) {
		t.Fatalf("torn write reported %d bytes, want < %d", n, len(payload))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("readback: %v", err)
	}
	if len(got) != n || string(got) != string(payload[:n]) {
		t.Fatalf("on-disk bytes %q are not the reported prefix %q", got, payload[:n])
	}
}

func TestBitrotFlipsOneBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	payload := []byte("pristine bytes on disk")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := New(mustPlan(t, "*:bitrot@1"), Config{Seed: 5})
	got, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	diff := 0
	for i := range payload {
		b := payload[i] ^ got[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bitrot flipped %d bits, want exactly 1", diff)
	}
	// The file itself is untouched — rot is a read-path phenomenon.
	onDisk, _ := os.ReadFile(path)
	if string(onDisk) != string(payload) {
		t.Fatal("bitrot modified the stored bytes")
	}
}

func TestCrashHaltsAllWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := New(mustPlan(t, "*:crash@op4"), Config{Seed: 1})
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644) // op 1
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("before")); err != nil { // op 2
		t.Fatalf("pre-crash write: %v", err)
	}
	if err := f.Sync(); err != nil { // op 3
		t.Fatalf("pre-crash sync: %v", err)
	}
	if _, err := f.Write([]byte("after")); !errors.Is(err, ErrCrashed) { // op 4: power loss
		t.Fatalf("op 4 err = %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err = %v, want ErrCrashed", err)
	}
	if err := fs.Rename(path, path+".x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename err = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() = false after crash fired")
	}
	// Reads still work: the synced contents survive the crash.
	got, err := fs.ReadFile(path)
	if err != nil || string(got) != "before" {
		t.Fatalf("post-crash read = %q, %v; want \"before\"", got, err)
	}
	if fs.MutatingOps() < 4 {
		t.Fatalf("MutatingOps() = %d, want >= 4", fs.MutatingOps())
	}
}

// TestCrashDropsUnsyncedBytes is the power-loss model: at the crash every
// file keeps exactly what it held at its last successful Sync — that
// length follows it across a Rename — and a file never synced is empty.
func TestCrashDropsUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	tmp, snap, never := filepath.Join(dir, "snap.tmp"), filepath.Join(dir, "snap"), filepath.Join(dir, "never")
	fs := New(mustPlan(t, "*:crash@op8"), Config{Seed: 1})
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := fs.OpenFile(never, os.O_CREATE|os.O_WRONLY, 0o644) // op 2
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, op := range []func() error{
		func() error { _, err := f.Write([]byte("synced")); return err }, // op 3
		f.Sync, // op 4
		func() error { _, err := f.Write([]byte("+lost")); return err },        // op 5
		func() error { return fs.Rename(tmp, snap) },                           // op 6
		func() error { _, err := g.Write([]byte("never synced")); return err }, // op 7
	} {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i+3, err)
		}
	}
	if got, _ := os.ReadFile(snap); string(got) != "synced+lost" {
		t.Fatalf("before the crash %s holds %q", snap, got)
	}
	if err := g.Sync(); !errors.Is(err, ErrCrashed) { // op 8: power loss
		t.Fatalf("op 8 err = %v, want ErrCrashed", err)
	}
	for path, want := range map[string]string{snap: "synced", never: ""} {
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("after the crash %s holds %q (%v), want %q", path, got, err, want)
		}
	}
}
