package fsim_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/metascreen/metascreen/internal/fsim"
)

var update = flag.Bool("update", false, "rewrite testdata/replay.golden from this build")

// errName classifies an operation's error without its (temporary) path.
func errName(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, syscall.EIO):
		return "EIO"
	case errors.Is(err, syscall.ENOSPC):
		return "ENOSPC"
	case errors.Is(err, fsim.ErrCrashed):
		return "crashed"
	}
	return "other"
}

// TestReplayGolden pins a fixed plan's decision log at two seeds, and
// what the faults did to the bytes (a torn write's kept prefix, a bitrot
// read's flipped bit), to output recorded by an earlier build: a change
// to the decision lane (seed × FNV-64a(path) × op ordinal × rule
// position) or to the continuation draws shows up as a diff. Regenerate
// with -update only when a change to the decisions is intended.
func TestReplayGolden(t *testing.T) {
	const spec = "*:eio@0.15,journal/*:torn-write@0.3,*:bitrot@0.4"
	plan, err := fsim.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := filepath.Abs(filepath.Join("testdata", "replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var b strings.Builder
	for _, seed := range []uint64{7, 2016} {
		// Paths are relative to a fresh directory: the lane hashes the
		// path, so it must not carry a temporary directory's name.
		if err := os.Chdir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		fs := fsim.New(plan, fsim.Config{Seed: seed})
		fmt.Fprintf(&b, "seed %d\n", seed)
		const sub = "journal"
		fmt.Fprintf(&b, "mkdir %s\n", errName(fs.MkdirAll(sub, 0o755)))
		for i := 0; i < 24; i++ {
			p := filepath.Join(sub, fmt.Sprintf("seg-%d.wal", i%3))
			f, err := fs.OpenFile(p, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintf(&b, "open %s %s\n", p, errName(err))
				continue
			}
			n, err := f.Write([]byte(fmt.Sprintf("record-%02d-payload-bytes", i)))
			fmt.Fprintf(&b, "write %s %d %s\n", p, n, errName(err))
			fmt.Fprintf(&b, "sync %s %s\n", p, errName(f.Sync()))
			f.Close()
			data, err := fs.ReadFile(p)
			h := fnv.New64a()
			h.Write(data)
			fmt.Fprintf(&b, "read %s %d %016x %s\n", p, len(data), h.Sum64(), errName(err))
		}
		fmt.Fprintf(&b, "rename %s\n", errName(fs.Rename(filepath.Join(sub, "seg-0.wal"), filepath.Join(sub, "snap"))))
		fmt.Fprintf(&b, "remove %s\n", errName(fs.Remove(filepath.Join(sub, "seg-1.wal"))))
		for _, d := range fs.Decisions() {
			fmt.Fprintf(&b, "decision %s %s %s %d\n", d.Op, d.Path, d.Kind, d.Seq)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("decision log drifted from %s at line %d: got %q, want %q", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("decision log drifted from %s: %d lines, want %d", golden, len(g), len(w))
	}
}
