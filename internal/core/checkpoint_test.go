package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
)

func checkpointFixtures() (*molecule.Molecule, []*molecule.Molecule) {
	rec := molecule.SyntheticProtein("rec", 400, 71)
	lib := []*molecule.Molecule{
		molecule.SyntheticLigand("cp-a", 8, 1),
		molecule.SyntheticLigand("cp-b", 12, 2),
		molecule.SyntheticLigand("cp-c", 10, 3),
	}
	return rec, lib
}

// screenResumable runs a checkpointed screen as the screening service
// does: the receptor prepared once (two spots), then ScreenReceptorCtx
// over cp at seed 5.
func screenResumable(ctx context.Context, rec *molecule.Molecule, lib []*molecule.Molecule,
	backf BackendFactory, workers int, cp *Checkpoint, onUpdate CheckpointFunc) (*ScreenResult, error) {
	prepared, err := PrepareReceptor(rec, surface.Options{MaxSpots: 2})
	if err != nil {
		return nil, err
	}
	return ScreenReceptorCtx(ctx, prepared, lib, screenAlgFactory(), backf, 5, workers, cp, onUpdate)
}

func TestScreenResumableMatchesScreen(t *testing.T) {
	rec, lib := checkpointFixtures()
	plain, err := Screen(rec, lib, surface.Options{MaxSpots: 2}, forcefield.Options{},
		screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 5)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{}
	resumable, err := screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 1, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Ranking {
		if plain.Ranking[i].Ligand.Name != resumable.Ranking[i].Ligand.Name ||
			plain.Ranking[i].Result.Best.Score != resumable.Ranking[i].Result.Best.Score {
			t.Errorf("rank %d differs between Screen and the checkpointed screen", i)
		}
	}
	if len(cp.Ligands) != 3 {
		t.Errorf("checkpoint recorded %d ligands", len(cp.Ligands))
	}
}

func TestScreenResumableSkipsCompleted(t *testing.T) {
	rec, lib := checkpointFixtures()
	// First pass: only the first two ligands.
	cp := &Checkpoint{}
	if _, err := screenResumable(context.Background(), rec, lib[:2], HostBackendFactory(HostConfig{Real: true}), 1, cp, nil); err != nil {
		t.Fatal(err)
	}
	firstA := cp.Ligands["cp-a"]

	// Round-trip the checkpoint through JSON, as its records travel.
	buf, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &Checkpoint{}
	if err := json.Unmarshal(buf, loaded); err != nil {
		t.Fatal(err)
	}
	if len(loaded.Ligands) != 2 || loaded.Seed != 5 {
		t.Fatalf("loaded checkpoint = %+v", loaded)
	}

	// Resume over the full library: the first two come from the
	// checkpoint (identical results), only the third runs.
	res, err := screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 1, loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranking) != 3 {
		t.Fatalf("%d entries after resume", len(res.Ranking))
	}
	if loaded.Ligands["cp-a"].Best.Score != firstA.Best.Score {
		t.Error("resume recomputed a completed ligand differently")
	}
	if _, ok := loaded.Ligands["cp-c"]; !ok {
		t.Error("resumed run did not record the new ligand")
	}
}

func TestScreenResumableValidation(t *testing.T) {
	rec, lib := checkpointFixtures()
	cp := &Checkpoint{Seed: 99, Ligands: map[string]LigandRecord{}}
	if _, err := screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 1, cp, nil); err == nil {
		t.Error("seed mismatch accepted")
	}
	dup := []*molecule.Molecule{lib[0], lib[0]}
	if _, err := screenResumable(context.Background(), rec, dup, HostBackendFactory(HostConfig{Real: true}), 1, &Checkpoint{}, nil); err == nil {
		t.Error("duplicate ligand names accepted")
	}
}

// TestScreenResumableCtxMatchesScreenCtx: the parallel resumable screen is
// byte-identical to the plain parallel screen, whether it starts cold or
// resumes halfway — the recovery-layer determinism contract.
func TestScreenResumableCtxMatchesScreenCtx(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 400, 71)
	lib := SyntheticLibrary(6)
	plain, err := ScreenCtx(context.Background(), rec, lib, surface.Options{MaxSpots: 2},
		forcefield.Options{}, screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, res *ScreenResult) {
		t.Helper()
		if res.SimulatedSeconds != plain.SimulatedSeconds || res.Evaluations != plain.Evaluations {
			t.Errorf("%s: work totals (%g, %d) differ from ScreenCtx (%g, %d)", name,
				res.SimulatedSeconds, res.Evaluations, plain.SimulatedSeconds, plain.Evaluations)
		}
		for i := range plain.Ranking {
			p, r := plain.Ranking[i], res.Ranking[i]
			if p.Ligand.Name != r.Ligand.Name || p.Result.Best.Score != r.Result.Best.Score ||
				p.Result.Best.Translation != r.Result.Best.Translation {
				t.Errorf("%s: rank %d differs from ScreenCtx", name, i)
			}
		}
	}

	// Cold start, parallel.
	cold := &Checkpoint{}
	res, err := screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 4, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("cold", res)
	if len(cold.Ligands) != len(lib) {
		t.Errorf("cold checkpoint holds %d ligands, want %d", len(cold.Ligands), len(lib))
	}

	// Resume from a half-full checkpoint (as if a crash hit mid-screen).
	half := &Checkpoint{Seed: 5, Ligands: map[string]LigandRecord{}}
	for _, name := range []string{lib[1].Name, lib[4].Name, lib[5].Name} {
		half.Ligands[name] = cold.Ligands[name]
	}
	res, err = screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 2, half, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("resumed", res)

	// Fully checkpointed: nothing runs, the ranking is rebuilt from records.
	res, err = screenResumable(context.Background(), rec, lib,
		func(p *Problem) (Backend, error) { t.Fatal("backend built for a completed screen"); return nil, nil }, 2, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("replayed", res)
}

// TestScreenResumableCtxCallback: the checkpoint hook sees every newly
// completed ligand's record exactly once with a monotonically growing count, and a
// hook error aborts the screen while keeping the checkpoint.
func TestScreenResumableCtxCallback(t *testing.T) {
	rec, lib := checkpointFixtures()
	var counts []int
	cp := &Checkpoint{}
	_, err := screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 2, cp,
		func(cp *Checkpoint, rec LigandRecord, newly int) error {
			if len(cp.Ligands) != newly {
				t.Errorf("hook sees %d recorded ligands at newly=%d", len(cp.Ligands), newly)
			}
			if got, ok := cp.Ligands[rec.Name]; !ok || got.Best.Score != rec.Best.Score {
				t.Errorf("hook's record %q is not the one added to the checkpoint", rec.Name)
			}
			counts = append(counts, newly)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(lib) {
		t.Fatalf("hook called %d times, want %d", len(counts), len(lib))
	}
	for i, n := range counts {
		if n != i+1 {
			t.Errorf("hook call %d reported newly=%d", i, n)
		}
	}

	// A failing hook aborts; completed work stays checkpointed.
	cp2 := &Checkpoint{}
	_, err = screenResumable(context.Background(), rec, lib, HostBackendFactory(HostConfig{Real: true}), 1, cp2,
		func(cp *Checkpoint, _ LigandRecord, newly int) error {
			if newly == 2 {
				return errors.New("disk full")
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if len(cp2.Ligands) != 2 {
		t.Errorf("checkpoint holds %d ligands after aborted hook, want 2", len(cp2.Ligands))
	}
}

func TestScreenResumableCtxCancelled(t *testing.T) {
	rec, lib := checkpointFixtures()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := screenResumable(ctx, rec, lib, HostBackendFactory(HostConfig{Real: true}), 2,
		&Checkpoint{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestPoseRecordRoundTrip(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, smallAlg(t), b, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := poseRecord(res.Best)
	back := rec.Conformation()
	if back.Score != res.Best.Score || back.Translation != res.Best.Translation ||
		back.Orientation != res.Best.Orientation || back.Spot != res.Best.Spot {
		t.Errorf("pose round trip: %+v vs %+v", back, res.Best)
	}
}
