package core

import (
	"context"
	"testing"

	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
)

// TestScreenRankingInvariantToBatching is the golden byte-identity guarantee
// of the batched hot path: the full library ranking of core.Screen at a
// fixed seed is bit-for-bit unchanged by disabling batching, by the
// backend's worker count, and by the screen-level worker count. Batching is a throughput knob, never a semantic one.
func TestScreenRankingInvariantToBatching(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 500, 41)
	library := []*molecule.Molecule{
		molecule.SyntheticLigand("lig-a", 10, 1),
		molecule.SyntheticLigand("lig-b", 18, 2),
		molecule.SyntheticLigand("lig-c", 25, 3),
	}
	run := func(cfg HostConfig, workers int) *ScreenResult {
		t.Helper()
		res, err := ScreenCtx(context.Background(), rec, library,
			surface.Options{MaxSpots: 2}, forcefield.Options{},
			screenAlgFactory(), HostBackendFactory(cfg), 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(HostConfig{Real: true, Workers: 1}, 1)
	variants := []struct {
		name    string
		cfg     HostConfig
		workers int
	}{
		{"unbatched", HostConfig{Real: true, Workers: 1, DisableBatch: true}, 1},
		{"backend-workers-4", HostConfig{Real: true, Workers: 4, ModelCores: 1}, 1},
		{"screen-workers-3", HostConfig{Real: true, Workers: 1}, 3},
		{"unbatched-workers-4", HostConfig{Real: true, Workers: 4, ModelCores: 1, DisableBatch: true}, 3},
	}
	for _, v := range variants {
		got := run(v.cfg, v.workers)
		if len(got.Ranking) != len(base.Ranking) {
			t.Fatalf("%s: %d entries, want %d", v.name, len(got.Ranking), len(base.Ranking))
		}
		for i := range base.Ranking {
			want, have := base.Ranking[i], got.Ranking[i]
			if have.Ligand.Name != want.Ligand.Name {
				t.Errorf("%s: rank %d is %s, want %s", v.name, i, have.Ligand.Name, want.Ligand.Name)
				continue
			}
			if have.Result.Best.Score != want.Result.Best.Score {
				t.Errorf("%s: %s best score %v, want bit-identical %v",
					v.name, have.Ligand.Name, have.Result.Best.Score, want.Result.Best.Score)
			}
			if have.Result.Best.Translation != want.Result.Best.Translation ||
				have.Result.Best.Orientation != want.Result.Best.Orientation {
				t.Errorf("%s: %s best pose differs from baseline", v.name, have.Ligand.Name)
			}
			if have.Result.Evaluations != want.Result.Evaluations {
				t.Errorf("%s: %s evaluations %d, want %d",
					v.name, have.Ligand.Name, have.Result.Evaluations, want.Result.Evaluations)
			}
		}
		if got.Evaluations != base.Evaluations {
			t.Errorf("%s: total evaluations %d, want %d", v.name, got.Evaluations, base.Evaluations)
		}
	}
}
