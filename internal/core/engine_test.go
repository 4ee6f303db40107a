package core

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
)

// smallProblem builds a quick Real-mode problem: ~600-atom receptor,
// 12-atom ligand, 4 spots.
func smallProblem(t *testing.T) *Problem {
	t.Helper()
	rec := molecule.SyntheticProtein("rec", 600, 31)
	lig := molecule.SyntheticLigand("lig", 12, 32)
	p, err := NewProblem(rec, lig, surface.Options{MaxSpots: 4}, forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func smallAlg(t *testing.T) metaheuristic.Algorithm {
	t.Helper()
	alg, err := metaheuristic.NewScatterSearch("test-ss", metaheuristic.Params{
		PopulationPerSpot: 16,
		SelectFraction:    1,
		ImproveFraction:   0.5,
		ImproveMoves:      3,
		Generations:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func TestRunHostRealOptimizes(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, smallAlg(t), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spots) != 4 {
		t.Fatalf("spot results = %d", len(res.Spots))
	}
	if !res.Best.Evaluated() {
		t.Fatal("no evaluated best")
	}
	// The overall best must be the best across spots.
	for _, sr := range res.Spots {
		if sr.Best.Better(res.Best) {
			t.Errorf("spot %d best %v beats overall %v", sr.Spot.ID, sr.Best.Score, res.Best.Score)
		}
	}
	if res.Generations != 8 {
		t.Errorf("generations = %d", res.Generations)
	}
	if res.Evaluations <= 0 || res.WallSeconds <= 0 {
		t.Errorf("bad accounting: evals=%d wall=%v", res.Evaluations, res.WallSeconds)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := smallProblem(t)
	run := func() *Result {
		b, err := NewHostBackend(p, HostConfig{Real: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, smallAlg(t), b, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Best.Score != b.Best.Score || a.Best.Translation != b.Best.Translation {
		t.Errorf("same seed differs: %v vs %v", a.Best, b.Best)
	}
	for i := range a.Spots {
		if a.Spots[i].Best.Score != b.Spots[i].Best.Score {
			t.Errorf("spot %d differs", i)
		}
	}
}

func TestRunSeedMatters(t *testing.T) {
	p := smallProblem(t)
	mk := func(seed uint64) *Result {
		b, err := NewHostBackend(p, HostConfig{Real: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, smallAlg(t), b, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if mk(1).Best.Translation == mk(2).Best.Translation {
		t.Error("different seeds gave identical best pose")
	}
}

func TestRunPoolRealMatchesHostReal(t *testing.T) {
	// The pool backend computes the same scores as the host backend;
	// partitioning only affects the simulated timeline, never results.
	p := smallProblem(t)
	hb, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := Run(p, smallAlg(t), hb, 3)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPoolBackend(p, PoolConfig{
		Real:  true,
		Specs: []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580},
		Mode:  sched.Heterogeneous,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(p, smallAlg(t), pb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Best.Score != pres.Best.Score || hres.Best.Translation != pres.Best.Translation {
		t.Errorf("host best %v != pool best %v", hres.Best, pres.Best)
	}
}

func TestRunBestImprovesOnRandom(t *testing.T) {
	p := smallProblem(t)
	// Random baseline: M4-free single-generation GA with 1 generation.
	base, err := metaheuristic.NewGenetic("base", metaheuristic.Params{
		PopulationPerSpot: 16, SelectFraction: 1, Generations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := Run(p, base, bb, 5)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	ores, err := Run(p, smallAlg(t), ob, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Best.Score > bres.Best.Score {
		t.Errorf("8-generation run (%v) worse than 1-generation run (%v)",
			ores.Best.Score, bres.Best.Score)
	}
}

func TestRunModeledEvaluationCounts(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: false, ModelCores: 12, ModelClockMHz: 2000})
	if err != nil {
		t.Fatal(err)
	}
	alg := smallAlg(t)
	res, err := Run(p, alg, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	pm := alg.Params()
	spots := len(p.Spots)
	// Per spot: initial pop + per generation (pop offspring scored +
	// improveFraction*pop*moves improve evals).
	perSpot := pm.PopulationPerSpot // seed
	perGen := pm.PopulationPerSpot + int(float64(pm.PopulationPerSpot)*pm.ImproveFraction+0.5)*pm.ImproveMoves
	want := int64(spots * (perSpot + pm.Generations*perGen))
	if res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, want)
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestRunM4SingleGeneration(t *testing.T) {
	p := smallProblem(t)
	alg, err := metaheuristic.NewLocalSearch("m4", metaheuristic.Params{
		PopulationPerSpot: 32,
		ImproveMoves:      5,
		Generations:       99, // forced to 1 by the constructor
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, alg, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 1 {
		t.Errorf("M4 ran %d generations", res.Generations)
	}
	// Local search never worsens: every spot best must beat or match the
	// best random seed... which we can't see directly; at least all spots
	// report finite negative-or-positive scores.
	for _, sr := range res.Spots {
		if !sr.Best.Evaluated() || math.IsNaN(sr.Best.Score) {
			t.Errorf("spot %d best unscored", sr.Spot.ID)
		}
	}
}

func TestRunHeterogeneousFasterThanHomogeneousOnHertz(t *testing.T) {
	// Modeled full pipeline: warm-up + proportional split beats equal
	// split on the K40c+GTX580 node, as in the paper's Tables 8-9. The
	// workload must be large enough that the one-time warm-up cost and
	// the fixed per-launch overheads do not dominate (on trivial
	// workloads the homogeneous split wins, which is itself realistic).
	rec := molecule.SyntheticProtein("rec", 3000, 33)
	lig := molecule.SyntheticLigand("lig", 20, 34)
	p, err := NewProblem(rec, lig, surface.Options{MaxSpots: 8}, forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := metaheuristic.NewScatterSearch("big-ss", metaheuristic.Params{
		PopulationPerSpot: 256,
		SelectFraction:    1,
		ImproveFraction:   0.5,
		ImproveMoves:      4,
		Generations:       30,
	})
	if err != nil {
		t.Fatal(err)
	}
	simTime := func(mode sched.Mode) float64 {
		b, err := NewPoolBackend(p, PoolConfig{
			Specs: []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580},
			Mode:  mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, alg, b, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimulatedSeconds
	}
	hom := simTime(sched.Homogeneous)
	het := simTime(sched.Heterogeneous)
	if het >= hom {
		t.Errorf("heterogeneous (%v) not faster than homogeneous (%v)", het, hom)
	}
}

func TestRunGPUFasterThanCPUModel(t *testing.T) {
	p := smallProblem(t)
	alg := smallAlg(t)
	hb, err := NewHostBackend(p, HostConfig{ModelCores: 12, ModelClockMHz: 2000})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := Run(p, alg, hb, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPoolBackend(p, PoolConfig{
		Specs: []cudasim.DeviceSpec{cudasim.GTX590, cudasim.GTX590, cudasim.GTX590, cudasim.GTX590},
		Mode:  sched.Homogeneous,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(p, alg, pb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pres.SimulatedSeconds >= hres.SimulatedSeconds {
		t.Errorf("multiGPU (%v) not faster than 12-core CPU (%v)",
			pres.SimulatedSeconds, hres.SimulatedSeconds)
	}
}

func TestRunEnergyAccounting(t *testing.T) {
	// Both backends model energy; the heterogeneous split wastes less
	// energy than the homogeneous one on a mixed node (the slow device no
	// longer idles at barriers — the paper's "waste energy" concern).
	rec := molecule.SyntheticProtein("rec", 3000, 33)
	lig := molecule.SyntheticLigand("lig", 20, 34)
	p, err := NewProblem(rec, lig, surface.Options{MaxSpots: 8}, forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough generations that the one-time warm-up energy amortizes, as
	// in the paper's 150-660-generation runs.
	alg, err := metaheuristic.NewScatterSearch("e-ss", metaheuristic.Params{
		PopulationPerSpot: 256, SelectFraction: 1,
		ImproveFraction: 0.5, ImproveMoves: 4, Generations: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	energy := func(mode sched.Mode) float64 {
		b, err := NewPoolBackend(p, PoolConfig{
			Specs: []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580},
			Mode:  mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, alg, b, 11)
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyJoules <= 0 {
			t.Fatal("no energy modeled")
		}
		return res.EnergyJoules
	}
	hom := energy(sched.Homogeneous)
	het := energy(sched.Heterogeneous)
	if het >= hom {
		t.Errorf("heterogeneous energy (%v J) not below homogeneous (%v J)", het, hom)
	}

	// The host backend reports energy too.
	hb, err := NewHostBackend(p, HostConfig{ModelCores: 4, ModelClockMHz: 3100})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := Run(p, alg, hb, 11)
	if err != nil {
		t.Fatal(err)
	}
	if hres.EnergyJoules <= 0 {
		t.Error("host backend modeled no energy")
	}
}

func TestRunErrors(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	empty := &Problem{Receptor: p.Receptor, Ligand: p.Ligand}
	if _, err := Run(empty, smallAlg(t), b, 1); err == nil {
		t.Error("no error for problem without spots")
	}
}

func TestNewPoolBackendErrors(t *testing.T) {
	p := smallProblem(t)
	if _, err := NewPoolBackend(p, PoolConfig{}); err == nil {
		t.Error("no error for empty device list")
	}
	if _, err := NewPoolBackend(p, PoolConfig{
		Specs: []cudasim.DeviceSpec{cudasim.GTX580}, NoiseAmp: math.NaN(),
	}); err == nil {
		t.Error("no error for NaN warm-up noise")
	}
}

func TestPoolBackendMemoryGate(t *testing.T) {
	// A device without enough global memory for the problem must be
	// rejected at construction — the paper's scaling-for-memory argument.
	tiny := cudasim.GTX580
	tiny.Name = "Tiny GPU"
	tiny.GlobalMemMB = 1 // 1 MB cannot hold the conformation buffers
	p, err := NewProblemFromDataset(Dataset2BXG(), forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPoolBackend(p, PoolConfig{Specs: []cudasim.DeviceSpec{tiny}}); err == nil {
		t.Error("oversized problem accepted on a 1 MB device")
	}
	// The real GTX580 fits it fine.
	if _, err := NewPoolBackend(p, PoolConfig{Specs: []cudasim.DeviceSpec{cudasim.GTX580}}); err != nil {
		t.Errorf("2BXG rejected on a real GTX580: %v", err)
	}
}
