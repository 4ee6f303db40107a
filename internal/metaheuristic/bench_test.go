package metaheuristic

import (
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

func benchCtx() *SpotContext {
	spot := surface.Spot{Center: vec.New(20, 0, 0), Normal: vec.New(1, 0, 0), Radius: 10}
	return &SpotContext{
		Spot:    spot,
		Sampler: conformation.NewSampler(spot, 2),
		RNG:     rng.New(1),
	}
}

// benchPropose measures one generation of host-side Select+Combine, the
// serial fraction of the paper's scheme.
func benchPropose(b *testing.B, alg Algorithm) {
	b.Helper()
	state := alg.NewSpotState(benchCtx())
	seed := state.Seed()
	for i := range seed {
		seed[i].Score = float64(i)
	}
	state.Begin(seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scom := state.Propose()
		for j := range scom {
			if !scom[j].Evaluated() {
				scom[j].Score = float64(j)
			}
		}
		state.Integrate(scom)
	}
}

func BenchmarkGeneticGeneration(b *testing.B) {
	alg, err := NewGenetic("ga", M1Params(1))
	if err != nil {
		b.Fatal(err)
	}
	benchPropose(b, alg)
}

func BenchmarkScatterGeneration(b *testing.B) {
	alg, err := NewScatterSearch("ss", M2Params(1))
	if err != nil {
		b.Fatal(err)
	}
	benchPropose(b, alg)
}

// TestGenerationZeroAlloc pins a steady-state generation's host phases,
// Propose + ImproveTargets + Integrate, at zero allocations for M1–M4:
// offspring, Include output and index buffers are the SpotState's, reused.
func TestGenerationZeroAlloc(t *testing.T) {
	for _, mh := range PaperNames() {
		alg, err := NewPaper(mh, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		state := alg.NewSpotState(benchCtx())
		seed := state.Seed()
		for i := range seed {
			seed[i].Score = float64(i)
		}
		state.Begin(seed)
		gen := func() {
			scom := state.Propose()
			for j := range scom {
				if !scom[j].Evaluated() {
					scom[j].Score = float64(j % 7)
				}
			}
			for _, ti := range state.ImproveTargets(scom) {
				scom[ti].Score--
			}
			state.Integrate(scom)
		}
		gen() // the first generation sizes the buffers
		if allocs := testing.AllocsPerRun(20, gen); allocs != 0 {
			t.Errorf("%s: %.1f allocs per generation, want 0", mh, allocs)
		}
	}
}
