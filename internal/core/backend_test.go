package core

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

func TestNewComputeKinds(t *testing.T) {
	p := smallProblem(t)
	for _, c := range []struct {
		real     bool
		improver string
		ok       bool
	}{
		{false, "", true},
		{true, "", true},
		{true, "stochastic", true},
		{true, "gradient", true},
		{true, "newton", false},
	} {
		_, err := newCompute(p, c.real, c.improver)
		if c.ok && err != nil {
			t.Errorf("newCompute(%+v): %v", c, err)
		}
		if !c.ok && err == nil {
			t.Errorf("newCompute(%+v) accepted", c)
		}
	}
}

func TestGradientImproveLowersEnergy(t *testing.T) {
	p := smallProblem(t)
	comp, err := newCompute(p, true, "gradient")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(81)
	sampler := conformation.NewSampler(p.Spots[0], p.LigandRadius())
	arena := new(poseArena)
	improvedCount := 0
	for trial := 0; trial < 20; trial++ {
		c := sampler.Random(r)
		comp.score(&c, arena)
		before := c.Score
		comp.improve(ImproveItem{Conf: &c, Sampler: sampler, RNG: r.Split(uint64(trial))}, 10, conformation.DefaultMoveScale, arena)
		if c.Score > before {
			t.Errorf("trial %d: gradient improve worsened %v -> %v", trial, before, c.Score)
		}
		if c.Score < before-1e-9 {
			improvedCount++
		}
		if !sampler.Contains(c) {
			t.Errorf("trial %d: improved pose escaped the spot region", trial)
		}
	}
	if improvedCount < 5 {
		t.Errorf("gradient descent improved only %d/20 poses", improvedCount)
	}
}

func TestGradientImproveDeterministic(t *testing.T) {
	p := smallProblem(t)
	comp, err := newCompute(p, true, "gradient")
	if err != nil {
		t.Fatal(err)
	}
	sampler := conformation.NewSampler(p.Spots[0], p.LigandRadius())
	arena := new(poseArena)
	start := sampler.Random(rng.New(7))
	run := func() float64 {
		c := start
		comp.score(&c, arena)
		comp.improve(ImproveItem{Conf: &c, Sampler: sampler, RNG: rng.New(1)}, 8, conformation.DefaultMoveScale, arena)
		return c.Score
	}
	if run() != run() {
		t.Error("gradient improve not deterministic")
	}
}

func TestGradientBackendEndToEnd(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true, Improver: "gradient"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, smallAlg(t), b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Evaluated() || math.IsNaN(res.Best.Score) {
		t.Fatal("no valid best")
	}
	// Gradient local search should not be worse than no local search.
	noImp, err := metaheuristic.NewGenetic("plain", metaheuristic.Params{
		PopulationPerSpot: 16, SelectFraction: 1, Generations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(p, noImp, b2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score > res2.Best.Score {
		t.Errorf("gradient run (%v) worse than plain GA (%v)", res.Best.Score, res2.Best.Score)
	}
}

func TestGradientImproveFlexible(t *testing.T) {
	// Torsion-aware gradient descent: improving a flexible pose never
	// worsens it, keeps torsion vectors intact and actually bends bonds.
	p := smallProblem(t)
	dof := p.EnableFlexibility()
	if dof == 0 {
		t.Skip("ligand has no rotatable bonds")
	}
	comp, err := newCompute(p, true, "gradient")
	if err != nil {
		t.Fatal(err)
	}
	sampler := conformation.NewSampler(p.Spots[0], p.LigandRadius())
	sampler.SetTorsions(p.TorsionSet())
	arena := new(poseArena)
	r := rng.New(91)
	bentCount := 0
	for trial := 0; trial < 20; trial++ {
		c := sampler.Random(r)
		comp.score(&c, arena)
		before := c
		comp.improve(ImproveItem{Conf: &c, Sampler: sampler, RNG: r.Split(uint64(trial))}, 12, conformation.DefaultMoveScale, arena)
		if c.Score > before.Score {
			t.Errorf("trial %d: flexible gradient improve worsened %v -> %v", trial, before.Score, c.Score)
		}
		if len(c.Torsions) != dof {
			t.Fatalf("trial %d: improved pose lost torsions (%d of %d)", trial, len(c.Torsions), dof)
		}
		for k := range c.Torsions {
			if c.Torsions[k] != before.Torsions[k] {
				bentCount++
				break
			}
		}
	}
	if bentCount == 0 {
		t.Error("gradient descent never moved a torsion angle")
	}
}

func TestFlexibleDockingEndToEnd(t *testing.T) {
	p := smallProblem(t)
	dof := p.EnableFlexibility()
	if dof < 1 {
		t.Fatalf("12-atom branched ligand has %d rotatable bonds", dof)
	}
	if p.TorsionSet().Len() != dof {
		t.Error("TorsionSet inconsistent with EnableFlexibility")
	}
	b, err := NewHostBackend(p, HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, smallAlg(t), b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Evaluated() || math.IsNaN(res.Best.Score) {
		t.Fatal("no valid flexible best")
	}
	// Poses carry the full torsion vector.
	if len(res.Best.Torsions) != dof {
		t.Errorf("best pose has %d torsions, want %d", len(res.Best.Torsions), dof)
	}
	for _, sr := range res.Spots {
		if len(sr.Best.Torsions) != dof {
			t.Errorf("spot %d best has %d torsions", sr.Spot.ID, len(sr.Best.Torsions))
		}
	}
}

func TestFlexibleDockingDeterministic(t *testing.T) {
	run := func() float64 {
		p := smallProblem(t)
		p.EnableFlexibility()
		b, err := NewHostBackend(p, HostConfig{Real: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, smallAlg(t), b, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Score
	}
	if run() != run() {
		t.Error("flexible runs with the same seed differ")
	}
}

func TestFlexibleDiffersFromRigid(t *testing.T) {
	rigid := func() float64 {
		p := smallProblem(t)
		b, err := NewHostBackend(p, HostConfig{Real: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, smallAlg(t), b, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Score
	}()
	flex := func() float64 {
		p := smallProblem(t)
		p.EnableFlexibility()
		b, err := NewHostBackend(p, HostConfig{Real: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, smallAlg(t), b, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Score
	}()
	if rigid == flex {
		t.Error("flexible run identical to rigid run")
	}
}

func TestModeledComputeSurrogateProperties(t *testing.T) {
	p := smallProblem(t)
	mc := newModeledCompute(p)
	r := rng.New(83)
	sampler := conformation.NewSampler(p.Spots[1], p.LigandRadius())
	// The surrogate has a well-defined optimum: improving with many moves
	// converges toward the hidden target, and more moves never score
	// worse than fewer.
	c1 := sampler.Random(r)
	c2 := c1
	mc.score(&c1, nil)
	mc.score(&c2, nil)
	few, many := c1, c2
	mc.improve(ImproveItem{Conf: &few, Sampler: sampler}, 2, conformation.DefaultMoveScale, nil)
	mc.improve(ImproveItem{Conf: &many, Sampler: sampler}, 64, conformation.DefaultMoveScale, nil)
	if many.Score > few.Score {
		t.Errorf("64 moves (%v) worse than 2 moves (%v)", many.Score, few.Score)
	}
	if !many.Better(c1) {
		t.Error("improve did not improve the surrogate score")
	}
}

// TestScoreBatchLockstepMatchesSingle scores batches of 1, 2, 3 and 63
// conformations whose spot changes every three entries, so runs split
// pairs, with one conformation moved out of its spot's region, and
// requires scoreBatch to assign each the bits the single-pose path gives
// it.
func TestScoreBatchLockstepMatchesSingle(t *testing.T) {
	p := smallProblem(t)
	comp, err := newCompute(p, true, "")
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]*conformation.Sampler, len(p.Spots))
	for i, s := range p.Spots {
		samplers[i] = conformation.NewSampler(s, p.LigandRadius())
	}
	r := rng.New(71)
	var batch, single poseArena
	for _, n := range []int{1, 2, 3, 63} {
		backing := make([]conformation.Conformation, n)
		confs := make([]*conformation.Conformation, n)
		for i := range backing {
			backing[i] = samplers[(i/3)%len(samplers)].Random(r)
			confs[i] = &backing[i]
		}
		if n > 1 {
			backing[1].Translation = backing[1].Translation.Add(vec.New(0, 0, 100))
		}
		comp.scoreBatch(confs, &batch)
		for i, c := range confs {
			alone := *c
			alone.Score = conformation.Unscored
			comp.score(&alone, &single)
			if math.Float64bits(c.Score) != math.Float64bits(alone.Score) {
				t.Errorf("batch %d conformation %d (spot %d): batched %v, alone %v", n, i, c.Spot, c.Score, alone.Score)
			}
		}
	}
}
