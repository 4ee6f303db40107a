package metaheuristic

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

func testCtx(seed uint64) *SpotContext {
	spot := surface.Spot{
		ID:     0,
		Center: vec.New(20, 0, 0),
		Normal: vec.New(1, 0, 0),
		Radius: 10,
	}
	return &SpotContext{
		Spot:    spot,
		Sampler: conformation.NewSampler(spot, 2),
		RNG:     rng.New(seed),
	}
}

// quadraticEval scores a conformation by distance to a hidden target pose:
// smooth, single-minimum, ideal for verifying that algorithms optimize.
type quadraticEval struct {
	target vec.V3
}

func (q quadraticEval) score(c conformation.Conformation) float64 {
	return c.Translation.Dist2(q.target)
}

// drive runs the SpotState protocol serially, scoring with eval and
// emulating local search as hill-climbing with the sampler, exactly like
// the engine's Real backend does.
func drive(t *testing.T, alg Algorithm, ctx *SpotContext, eval quadraticEval) conformation.Conformation {
	t.Helper()
	state := alg.NewSpotState(ctx)
	seed := state.Seed()
	if len(seed) != alg.Params().PopulationPerSpot {
		t.Fatalf("%s: seed size %d, want %d", alg.Name(), len(seed), alg.Params().PopulationPerSpot)
	}
	for i := range seed {
		if seed[i].Evaluated() {
			t.Fatalf("%s: seed individual %d pre-scored", alg.Name(), i)
		}
		seed[i].Score = eval.score(seed[i])
	}
	state.Begin(seed)

	improveRNG := ctx.RNG.Split(999)
	for gen := 0; ; gen++ {
		if state.Done(gen) {
			break
		}
		scom := state.Propose()
		for i := range scom {
			if !scom[i].Evaluated() {
				scom[i].Score = eval.score(scom[i])
			}
		}
		targets := state.ImproveTargets(scom)
		for _, ti := range targets {
			if ti < 0 || ti >= len(scom) {
				t.Fatalf("%s: improve target %d out of range", alg.Name(), ti)
			}
			cur := scom[ti]
			for m := 0; m < alg.Params().ImproveMoves; m++ {
				cand := ctx.Sampler.Perturb(improveRNG, cur, alg.Params().moveScale())
				cand.Score = eval.score(cand)
				if cand.Better(cur) {
					cur = cand
				}
			}
			scom[ti] = cur
		}
		state.Integrate(scom)
	}
	return state.Best()
}

// allAlgorithms builds each algorithm with a small test parameterization.
func allAlgorithms(t *testing.T) []Algorithm {
	t.Helper()
	p := Params{
		PopulationPerSpot: 24,
		SelectFraction:    1.0,
		ImproveFraction:   0.5,
		ImproveMoves:      4,
		Generations:       30,
	}
	ga, err := NewGenetic("ga", p)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewScatterSearch("ss", p)
	if err != nil {
		t.Fatal(err)
	}
	lsP := p
	lsP.PopulationPerSpot = 200
	lsP.ImproveMoves = 40
	ls, err := NewLocalSearch("ls", lsP)
	if err != nil {
		t.Fatal(err)
	}
	return []Algorithm{ga, ss, ls}
}

func TestAlgorithmsOptimize(t *testing.T) {
	for _, alg := range allAlgorithms(t) {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			ctx := testCtx(101)
			// Hidden optimum inside the search region.
			eval := quadraticEval{target: ctx.Spot.Center.Add(vec.New(4, 1, -2))}

			// Baseline: best of a same-size random sample.
			baselineRNG := rng.New(555)
			baseline := math.Inf(1)
			n := alg.Params().PopulationPerSpot
			for i := 0; i < n; i++ {
				c := ctx.Sampler.Random(baselineRNG)
				if s := eval.score(c); s < baseline {
					baseline = s
				}
			}

			best := drive(t, alg, ctx, eval)
			if !best.Evaluated() {
				t.Fatal("no evaluated best")
			}
			if best.Score > baseline {
				t.Errorf("best %v worse than random baseline %v", best.Score, baseline)
			}
		})
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	for _, mk := range []func() Algorithm{
		func() Algorithm { a, _ := NewGenetic("ga", M1Params(0.1)); return a },
		func() Algorithm { a, _ := NewScatterSearch("ss", M3Params(0.1)); return a },
	} {
		alg := mk()
		eval := quadraticEval{target: vec.New(24, 1, -2)}
		a := drive(t, alg, testCtx(7), eval)
		b := drive(t, mk(), testCtx(7), eval)
		if a.Score != b.Score || a.Translation != b.Translation {
			t.Errorf("%s: same seed produced different results: %v vs %v", alg.Name(), a, b)
		}
	}
}

func TestPopulationBestAndSort(t *testing.T) {
	mk := func(score float64) conformation.Conformation {
		c := conformation.New(0, vec.Zero, vec.IdentityQuat)
		c.Score = score
		return c
	}
	p := Population{mk(3), mk(-1), mk(2)}
	if got := p.Best(); got != 1 {
		t.Errorf("Best = %d", got)
	}
	p = append(p, conformation.New(0, vec.Zero, vec.IdentityQuat)) // unscored
	if got := p.Best(); got != 1 {
		t.Errorf("Best with unscored = %d", got)
	}
	p.SortByScore()
	if p[0].Score != -1 || p[len(p)-1].Evaluated() {
		t.Errorf("sort order wrong: %v", p)
	}

	var empty Population
	if empty.Best() != -1 {
		t.Error("Best of empty != -1")
	}
}

func TestPopulationUnscoredAndClone(t *testing.T) {
	p := Population{
		conformation.New(0, vec.Zero, vec.IdentityQuat),
		func() conformation.Conformation {
			c := conformation.New(0, vec.Zero, vec.IdentityQuat)
			c.Score = 1
			return c
		}(),
	}
	if got := p.Unscored(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Unscored = %v", got)
	}
	c := p.Clone()
	c[0].Score = 99
	if p[0].Score == 99 {
		t.Error("Clone aliases original")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{PopulationPerSpot: 10, SelectFraction: 1, Generations: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad := []Params{
		{PopulationPerSpot: 0, SelectFraction: 1, Generations: 5},
		{PopulationPerSpot: 10, SelectFraction: 1, Generations: 0},
		{PopulationPerSpot: 10, SelectFraction: -0.1, Generations: 5},
		{PopulationPerSpot: 10, SelectFraction: 1.5, Generations: 5},
		{PopulationPerSpot: 10, SelectFraction: 1, ImproveFraction: 2, Generations: 5},
		{PopulationPerSpot: 10, SelectFraction: 1, ImproveMoves: -1, Generations: 5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestImproveFractionSelection(t *testing.T) {
	mk := func(score float64) conformation.Conformation {
		c := conformation.New(0, vec.Zero, vec.IdentityQuat)
		c.Score = score
		return c
	}
	scom := Population{mk(5), mk(1), mk(3), mk(2)}
	got := improveFraction(nil, scom, 0.5)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("improveFraction(0.5) = %v, want [1 3]", got)
	}
	if improveFraction(nil, scom, 0) != nil {
		t.Error("improveFraction(0) != nil")
	}
	if got := improveFraction(nil, scom, 1); len(got) != 4 {
		t.Errorf("improveFraction(1) = %v", got)
	}
	// Tiny positive fraction still improves at least one element.
	if got := improveFraction(nil, scom, 0.01); len(got) != 1 {
		t.Errorf("improveFraction(0.01) = %v", got)
	}
}
