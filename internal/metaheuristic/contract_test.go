package metaheuristic

import (
	"testing"

	"github.com/metascreen/metascreen/internal/vec"
)

// allContractAlgorithms builds each of the template's Combine steps with
// comparable parameters for the protocol contract test.
func allContractAlgorithms(t *testing.T) []Algorithm {
	t.Helper()
	p := Params{
		PopulationPerSpot: 18,
		SelectFraction:    1,
		ImproveFraction:   0.5,
		ImproveMoves:      3,
		Generations:       12,
	}
	var algs []Algorithm
	add := func(a Algorithm, err error) {
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	add(NewGenetic("ga", p))
	add(NewScatterSearch("ss", p))
	lsP := p
	lsP.ImproveMoves = 6
	add(NewLocalSearch("ls", lsP))
	return algs
}

// TestSpotStateContract drives each algorithm through the full driver
// protocol and checks the invariants the engine relies on:
//
//  1. Seed returns exactly PopulationPerSpot unscored individuals.
//  2. Propose returns a non-empty offspring set whose unscored members
//     the driver can evaluate.
//  3. ImproveTargets only returns valid indices, each at most once.
//  4. Integrate never grows the population without bound.
//  5. Best is monotone non-increasing and always evaluated after Begin.
//  6. Done eventually holds at the configured generation budget.
//  7. Every pose stays inside the sampler's region.
func TestSpotStateContract(t *testing.T) {
	for _, alg := range allContractAlgorithms(t) {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			ctx := testCtx(401)
			eval := quadraticEval{target: ctx.Spot.Center.Add(vec.New(2, 1, 0))}
			state := alg.NewSpotState(ctx)

			seed := state.Seed()
			if len(seed) != alg.Params().PopulationPerSpot {
				t.Fatalf("Seed returned %d, want %d", len(seed), alg.Params().PopulationPerSpot)
			}
			for i := range seed {
				if seed[i].Evaluated() {
					t.Fatalf("seed %d pre-scored", i)
				}
				if !ctx.Sampler.Contains(seed[i]) {
					t.Fatalf("seed %d outside region", i)
				}
				seed[i].Score = eval.score(seed[i])
			}
			state.Begin(seed)
			if !state.Best().Evaluated() {
				t.Fatal("Best unevaluated after Begin")
			}

			prevBest := state.Best().Score
			maxPop := 4 * alg.Params().PopulationPerSpot
			gen := 0
			for ; gen < 1000 && !state.Done(gen); gen++ {
				scom := state.Propose()
				if len(scom) == 0 {
					t.Fatalf("gen %d: empty proposal", gen)
				}
				for i := range scom {
					if !scom[i].Evaluated() {
						scom[i].Score = eval.score(scom[i])
					}
					if !ctx.Sampler.Contains(scom[i]) {
						t.Fatalf("gen %d: proposal %d outside region", gen, i)
					}
				}
				seen := map[int]bool{}
				for _, ti := range state.ImproveTargets(scom) {
					if ti < 0 || ti >= len(scom) {
						t.Fatalf("gen %d: improve target %d out of range", gen, ti)
					}
					if seen[ti] {
						t.Fatalf("gen %d: duplicate improve target %d", gen, ti)
					}
					seen[ti] = true
				}
				state.Integrate(scom)
				if got := len(state.Population()); got > maxPop {
					t.Fatalf("gen %d: population grew to %d", gen, got)
				}
				if cur := state.Best().Score; cur > prevBest+1e-12 {
					t.Fatalf("gen %d: Best worsened %v -> %v", gen, prevBest, cur)
				} else {
					prevBest = cur
				}
			}
			if gen >= 1000 {
				t.Fatal("Done never held")
			}
			if gen != alg.Params().Generations {
				t.Errorf("stopped after %d generations, params say %d", gen, alg.Params().Generations)
			}
		})
	}
}
