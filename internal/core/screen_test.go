package core

import (
	"context"
	"errors"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
)

func screenAlgFactory() AlgorithmFactory {
	return func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewScatterSearch("screen-ss", metaheuristic.Params{
			PopulationPerSpot: 10, SelectFraction: 1,
			ImproveFraction: 0.5, ImproveMoves: 2, Generations: 4,
		})
	}
}

func TestScreenRanksLibrary(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 500, 41)
	library := []*molecule.Molecule{
		molecule.SyntheticLigand("lig-a", 10, 1),
		molecule.SyntheticLigand("lig-b", 18, 2),
		molecule.SyntheticLigand("lig-c", 25, 3),
	}
	res, err := Screen(rec, library, surface.Options{MaxSpots: 2}, forcefield.Options{},
		screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranking) != 3 {
		t.Fatalf("%d entries", len(res.Ranking))
	}
	for i := 1; i < len(res.Ranking); i++ {
		if res.Ranking[i].Result.Best.Score < res.Ranking[i-1].Result.Best.Score {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluation accounting")
	}
}

func TestScreenIndependentOfLibraryOrder(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 500, 41)
	a := molecule.SyntheticLigand("lig-a", 10, 1)
	b := molecule.SyntheticLigand("lig-b", 18, 2)

	score := func(library []*molecule.Molecule, name string) float64 {
		res, err := Screen(rec, library, surface.Options{MaxSpots: 2}, forcefield.Options{},
			screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Ranking {
			if e.Ligand.Name == name {
				return e.Result.Best.Score
			}
		}
		t.Fatalf("ligand %s missing", name)
		return 0
	}
	// Seed lanes are keyed by a stable hash of the ligand name, so a
	// ligand's score is identical however the library is ordered or
	// padded — the property checkpoint resume relies on.
	s1 := score([]*molecule.Molecule{a, b}, "lig-a")
	s2 := score([]*molecule.Molecule{a, b}, "lig-a")
	if s1 != s2 {
		t.Errorf("same screen differs: %v vs %v", s1, s2)
	}
	if swapped := score([]*molecule.Molecule{b, a}, "lig-a"); swapped != s1 {
		t.Errorf("reordering the library changed lig-a's score: %v vs %v", swapped, s1)
	}
	c := molecule.SyntheticLigand("lig-c", 12, 3)
	if extended := score([]*molecule.Molecule{c, a, b}, "lig-a"); extended != s1 {
		t.Errorf("extending the library changed lig-a's score: %v vs %v", extended, s1)
	}
}

func TestScreenEmptyLibrary(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 500, 41)
	if _, err := Screen(rec, nil, surface.Options{}, forcefield.Options{},
		screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 1); err == nil {
		t.Error("empty library accepted")
	}
}

func TestSortRankingTieBreak(t *testing.T) {
	mk := func(name string, score float64) ScreenEntry {
		return ScreenEntry{
			Ligand: molecule.SyntheticLigand(name, 10, 1),
			Result: &Result{Best: conformation.Conformation{Score: score}},
		}
	}
	// Equal-energy ligands arrive in reverse-alphabetical library order;
	// the ranking must not preserve that accident.
	out := &ScreenResult{Ranking: []ScreenEntry{
		mk("lig-c", -5), mk("lig-b", -5), mk("lig-a", -5), mk("lig-d", -9),
	}}
	sortRanking(out)
	want := []string{"lig-d", "lig-a", "lig-b", "lig-c"}
	for i, w := range want {
		if got := out.Ranking[i].Ligand.Name; got != w {
			t.Errorf("rank %d: got %s want %s", i, got, w)
		}
	}
}

func TestScreenParallelMatchesSequential(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 500, 41)
	library := SyntheticLibrary(6)
	screen := func(workers int) *ScreenResult {
		res, err := ScreenCtx(context.Background(), rec, library,
			surface.Options{MaxSpots: 2}, forcefield.Options{},
			screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := screen(1)
	par := screen(4)
	if seq.SimulatedSeconds != par.SimulatedSeconds {
		t.Errorf("SimulatedSeconds differ: %v vs %v", seq.SimulatedSeconds, par.SimulatedSeconds)
	}
	if seq.Evaluations != par.Evaluations {
		t.Errorf("Evaluations differ: %d vs %d", seq.Evaluations, par.Evaluations)
	}
	for i := range seq.Ranking {
		s, p := seq.Ranking[i], par.Ranking[i]
		if s.Ligand.Name != p.Ligand.Name ||
			s.Result.Best.Score != p.Result.Best.Score ||
			s.Result.Best.Translation != p.Result.Best.Translation ||
			s.Result.Best.Orientation != p.Result.Best.Orientation {
			t.Errorf("rank %d differs: %s %v vs %s %v", i,
				s.Ligand.Name, s.Result.Best, p.Ligand.Name, p.Result.Best)
		}
	}
}

func TestScreenCtxCancelled(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 500, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScreenCtx(ctx, rec, SyntheticLibrary(3),
		surface.Options{MaxSpots: 2}, forcefield.Options{},
		screenAlgFactory(), HostBackendFactory(HostConfig{Real: true}), 1, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunCtxCancelled(t *testing.T) {
	p := smallProblem(t)
	alg, err := screenAlgFactory()()
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, p, alg, backend, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
