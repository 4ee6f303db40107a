package service

import (
	"context"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/trace"
	"github.com/metascreen/metascreen/internal/wal"
)

// Checkpoint records: every CheckpointEvery completed ligands a durable
// job journals the ligands it completed since its previous record; replay
// folds them back, and a resumed job re-docks exactly the ligands after
// the last one.

// journaledCheckpoints returns, in journal order, the ligand names of
// every checkpoint record the journal under dir holds for job id.
func journaledCheckpoints(t *testing.T, dir, id string) [][]string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := wal.ScanRecords(data)
		for _, rec := range recs {
			var ev jobEvent
			if json.Unmarshal(rec, &ev) != nil || ev.Type != evCheckpoint || ev.Job != id {
				continue
			}
			names := []string{}
			for _, r := range ev.Records {
				names = append(names, r.Name)
			}
			out = append(out, names)
		}
	}
	return out
}

// dockedLigands returns, sorted, the ligands job id's trace shows this
// process docking.
func dockedLigands(t *testing.T, s *Service, id string) []string {
	t.Helper()
	rec, err := s.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range rec.Spans() {
		if sp.Cat == trace.CatLigand {
			names = append(names, sp.Args["ligand"])
		}
	}
	slices.Sort(names)
	return names
}

// unrecorded returns, sorted, the names of a library's ligands that no
// checkpoint record holds.
func unrecorded(library int, records [][]string) []string {
	var out []string
	for i := 0; i < library; i++ {
		name := core.SyntheticName(i)
		held := false
		for _, r := range records {
			held = held || slices.Contains(r, name)
		}
		if !held {
			out = append(out, name)
		}
	}
	return out
}

// waitDone waits for job id to finish and requires it done.
func waitDone(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	waitFor(t, func() bool {
		v, err := s.Get(id)
		return err == nil && v.State.Terminal()
	})
	v, err := s.Get(id)
	if err != nil || v.State != StateDone {
		t.Fatalf("job %s finished as %q (%v): %s", id, v.State, err, v.Error)
	}
	return v
}

// resumeAndCheck boots a service under cfg over a crashed data dir and
// requires job id to finish with the reference ranking, re-docking exactly
// the ligands no journaled checkpoint record holds.
func resumeAndCheck(t *testing.T, cfg Config, id string) *Service {
	t.Helper()
	records := journaledCheckpoints(t, cfg.DataDir, id)
	s := newTestService(t, cfg, nil)
	v := waitDone(t, s, id)
	assertMatchesReference(t, v.Result, referenceResult(t))
	if got, want := dockedLigands(t, s, id), unrecorded(recoveryRequest.Library, records); !slices.Equal(got, want) {
		t.Errorf("resume re-docked %v, want exactly the ligands after the last checkpoint record %v", got, want)
	}
	return s
}

// TestCheckpointEveryBatchesRecords: with CheckpointEvery 3 a record
// carries three ligands, and a crash after the first one resumes by
// re-docking the three after it.
func TestCheckpointEveryBatchesRecords(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.CheckpointEvery = 3
	id := crashAt(t, cfg, 3)
	if got := journaledCheckpoints(t, cfg.DataDir, id); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("crashed run journaled checkpoint records %v, want one of three ligands", got)
	}
	s := resumeAndCheck(t, cfg, id)
	if got := journaledCheckpoints(t, cfg.DataDir, id); len(got) != 2 || len(got[1]) != 3 {
		t.Errorf("after the resume the journal holds checkpoint records %v, want two of three ligands", got)
	}
	if n := s.metrics.checkpointsWritten.Value(); n != 1 {
		t.Errorf("resumed process counted %d checkpoint records, want 1", n)
	}
}

// TestCompactionKeepsCheckpointRecords: compaction rewrites a running
// job's checkpoint records after its snapshot, so a crash after a
// compaction keeps the job's progress.
func TestCompactionKeepsCheckpointRecords(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.CompactBytes = 1 // compact whenever the journal doubles
	id := crashAt(t, cfg, 3)
	// The journal's last snapshot of the job was taken after its first
	// checkpoint record, and the checkpoint records that follow it — the
	// only ones replay keeps — hold all three ligands.
	segs, err := filepath.Glob(filepath.Join(cfg.DataDir, "journal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var snapshotted int
	var after []string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := wal.ScanRecords(data)
		for _, rec := range recs {
			var ev jobEvent
			if json.Unmarshal(rec, &ev) != nil || ev.Job != id {
				continue
			}
			switch ev.Type {
			case evSnapshot:
				snapshotted, after = ev.View.CheckpointLigands, nil
			case evCheckpoint:
				for _, r := range ev.Records {
					after = append(after, r.Name)
				}
			}
		}
	}
	if snapshotted == 0 || len(after) != 3 {
		t.Fatalf("the last snapshot holds %d checkpointed ligands and is followed by %v; want a snapshot after a checkpoint, then all three ligands",
			snapshotted, after)
	}
	resumeAndCheck(t, durableConfig(cfg.DataDir), id)
}

// TestCompactionStaysLogarithmic: with a 64 KiB compaction floor, a few
// thousand small jobs grow the compacted job table far past the floor,
// and compactions stay logarithmic in the journal's size instead of
// following every record once the table alone is past the floor.
func TestCompactionStaysLogarithmic(t *testing.T) {
	const jobs, floor = 2000, 64 << 10
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: jobs, DataDir: dir, Fsync: wal.SyncNever, CompactBytes: floor}
	s := newTestService(t, cfg, func(context.Context, string, ScreenRequest) (*core.ScreenResult, error) {
		return stubResult(), nil
	})
	ids := make([]string, jobs)
	for i := range ids {
		v, err := s.Submit(ScreenRequest{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for _, id := range ids {
		waitFor(t, func() bool {
			v, err := s.Get(id)
			return err == nil && v.State.Terminal()
		})
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		size += st.Size()
	}
	records, compactions := s.metrics.journalRecords.Value(), s.metrics.journalCompactions.Value()
	bound := int64(math.Log2(float64(size)/floor)) + 2
	t.Logf("%d jobs: %d records, %d compactions (%.4f per record), journal %d B, log2 bound %d",
		jobs, records, compactions, float64(compactions)/float64(records), size, bound)
	if compactions < 1 || compactions > bound {
		t.Fatalf("%d compactions for %d records into a %d B journal, want 1..%d", compactions, records, size, bound)
	}
}

// TestTerminalViewSupersedesCheckpointRecords: replay drops a job's
// checkpoint records at its terminal view — the journaled ranking is the
// result, not a stale subset of it — and a snapshot view of a running job
// keeps only the records that follow it.
func TestTerminalViewSupersedesCheckpointRecords(t *testing.T) {
	s := newTestService(t, Config{Workers: 1}, nil)
	req := ScreenRequest{Library: 3, Seed: 1}.withDefaults()
	recs := []core.LigandRecord{{Name: "LIG-000"}, {Name: "LIG-001"}}
	done := &JobView{ID: "job-000101", State: StateDone, Request: req, CheckpointLigands: 2,
		Result: &ResultView{Ranking: []RankEntry{
			{Rank: 1, Ligand: "LIG-002"}, {Rank: 2, Ligand: "LIG-000"}, {Rank: 3, Ligand: "LIG-001"},
		}}}
	running := &JobView{ID: "job-000102", State: StateRunning, Request: req, CheckpointLigands: 2}
	s.mu.Lock()
	for _, ev := range []jobEvent{
		{Type: evSubmitted, Job: done.ID, Request: &req},
		{Type: evCheckpoint, Job: done.ID, Records: recs},
		{Type: evTerminal, Job: done.ID, View: done},
		{Type: evCheckpoint, Job: running.ID, Records: recs},
		{Type: evSnapshot, Job: running.ID, View: running},
		{Type: evCheckpoint, Job: running.ID, Records: recs[1:]},
	} {
		s.applyEvent(ev)
	}
	s.mu.Unlock()

	for _, tc := range []struct {
		id        string
		completed int
		cp        int
	}{{done.ID, 3, 2}, {running.ID, 1, 1}} {
		pv, err := s.Partial(context.Background(), tc.id, PartialQuery{Page: DefaultPage()})
		if err != nil || pv.Completed != tc.completed || len(pv.Entries) != tc.completed {
			t.Errorf("%s: /partial serves %d of %d completed entries (%v), want %d",
				tc.id, len(pv.Entries), pv.Completed, err, tc.completed)
		}
		if v, _ := s.Get(tc.id); v.CheckpointLigands != tc.cp {
			t.Errorf("%s: checkpoint_ligands %d, want %d", tc.id, v.CheckpointLigands, tc.cp)
		}
	}
}

// fillableFS is the real filesystem on a disk a test fills at will: once
// full is set, every write fails with ENOSPC.
type fillableFS struct {
	fsim.FS
	full atomic.Bool
}

func (f *fillableFS) OpenFile(path string, flag int, perm os.FileMode) (fsim.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return fillableFile{file, &f.full}, nil
}

type fillableFile struct {
	fsim.File
	full *atomic.Bool
}

func (f fillableFile) Write(p []byte) (int, error) {
	if f.full.Load() {
		return 0, syscall.ENOSPC
	}
	return f.File.Write(p)
}

// TestDegradedModeSkipsCheckpointRecords: the checkpoint record that finds
// the disk full counts one error and degrades the journal; the job's
// later records are skipped, not failed — the job finishes, nothing more
// is journaled, and only the skip counter moves.
func TestDegradedModeSkipsCheckpointRecords(t *testing.T) {
	dir := t.TempDir()
	disk := &fillableFS{FS: fsim.OSFS()}
	cfg := durableConfig(dir)
	cfg.FS = disk
	s := newTestService(t, cfg, nil)
	s.mu.Lock()
	s.checkpointHook = func(_ string, newly int) {
		if newly == 1 {
			disk.full.Store(true)
		}
	}
	s.mu.Unlock()
	v, err := s.Submit(recoveryRequest)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	if got := journaledCheckpoints(t, dir, v.ID); len(got) != 1 {
		t.Errorf("journal holds checkpoint records %v, want only the one before the disk filled", got)
	}
	if st := s.Stats(); !st.StorageDegraded || st.StorageReason != "disk_full" {
		t.Errorf("Stats() = degraded=%v reason=%q, want degraded with reason disk_full", st.StorageDegraded, st.StorageReason)
	}
	m := s.metrics
	// The second checkpoint record failed; four more and the terminal
	// record were skipped.
	if w, e, sk := m.checkpointsWritten.Value(), m.checkpointErrors.Value(), m.journalSkipped.Value(); w != 1 || e != 1 || sk != 5 {
		t.Errorf("checkpoints written %d, errors %d, journal skips %d; want 1, 1, 5", w, e, sk)
	}
}

// TestLegacyDataDirReDocksFromScratch: a data dir written by older
// binaries — count-only checkpoint records plus checkpoints/<id>.json
// snapshot files, then one checkpoint record holding LIG-000 whose pose
// carries the "torsions" angles flexible docking used to journal — boots,
// ignores the files and the angles, keeps LIG-000 and re-docks every other
// ligand from scratch, finishing with the reference ranking.
func TestLegacyDataDirReDocksFromScratch(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "legacy-checkpoints")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, path[len(src):])
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", id+".json")); err != nil {
		t.Fatalf("fixture has no checkpoint file: %v", err)
	}
	// Only the last record carries a ligand, so resumeAndCheck expects the
	// rest of the library re-docked.
	if got := journaledCheckpoints(t, dir, id); len(got) != 3 || !slices.Equal(got[2], []string{"LIG-000"}) {
		t.Fatalf("fixture holds checkpoint records %v, want two count-only ones and one of LIG-000", got)
	}
	s := resumeAndCheck(t, durableConfig(dir), id)
	if rec := s.Recovery(); rec.RecoveredJobs != 1 {
		t.Errorf("recovery stats %+v, want 1 recovered job", rec)
	}
}

// TestReceptorCachePerProcess: concurrent jobs over both datasets and
// several spot counts rank entry-equal to in-process core.ScreenCtx, and
// every spot count of a dataset shares one prepared molecule and one cell
// list.
func TestReceptorCachePerProcess(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, ScreenWorkers: 1}, nil)
	var reqs []ScreenRequest
	for _, ds := range []string{"2BSM", "2BXG"} {
		for spots := 1; spots <= 3; spots++ {
			reqs = append(reqs, ScreenRequest{Dataset: ds, Library: 2, Spots: spots, Seed: uint64(10 + spots)})
		}
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		v, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for i, req := range reqs {
		v := waitDone(t, s, ids[i])
		assertMatchesReference(t, v.Result, referenceFor(t, req))
	}

	s.recMu.Lock()
	defer s.recMu.Unlock()
	if len(s.receptors) != len(reqs) || len(s.molecules) != 2 {
		t.Fatalf("cache holds %d receptors over %d molecules, want %d over 2", len(s.receptors), len(s.molecules), len(reqs))
	}
	for key, r := range s.receptors {
		if r.CellList() != s.molecules[key.dataset].CellList() {
			t.Errorf("%v has its own cell list", key)
		}
	}
}
