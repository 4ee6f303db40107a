package metaheuristic

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/vec"
)

var updateGenerations = flag.Bool("update", false, "rewrite testdata/generations.golden from this build")

// TestGenerationsGolden pins every individual of S, as hex float64 bits of
// its score and pose, after Begin and after every generation of M1–M4 and
// of the template's edge cases on a synthetic objective: GA mutation and a
// partial selection pool, scatter search cycling its pairs and falling back
// to random diversification when the reference subset is a single
// individual, and M4's unsorted population.
// The driver mirrors the engine's (score the unscored offspring, hill-climb
// the improve targets on a per-(generation, conformation) stream, Include),
// so a change to any template step that moves an RNG draw or an operation
// order shows here. Regenerate with -update only when such a change is
// intended.
func TestGenerationsGolden(t *testing.T) {
	must := func(a Algorithm, err error) Algorithm {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	paper := func(name string, scale float64) Algorithm { return must(NewPaper(name, scale)) }
	cases := []struct {
		label string
		alg   Algorithm
	}{
		{"M1", paper("M1", 0.05)},
		{"M2", paper("M2", 0.1)},
		{"M3", paper("M3", 0.1)},
		{"M4", paper("M4", 0.02)},
		{"ga-select", must(NewGenetic("ga", Params{
			PopulationPerSpot: 12, SelectFraction: 0.5, ImproveFraction: 0.25,
			ImproveMoves: 3, Generations: 8,
		}))},
		{"ss-cycle", must(NewScatterSearch("ss", Params{
			PopulationPerSpot: 50, SelectFraction: 1, ImproveFraction: 0.2,
			ImproveMoves: 2, Generations: 2,
		}))},
		{"ss-fallback", must(NewScatterSearch("ss", Params{
			PopulationPerSpot: 1, SelectFraction: 1, ImproveFraction: 1,
			ImproveMoves: 2, Generations: 4,
		}))},
	}

	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	var b strings.Builder
	record := func(label string, gen int, pop Population) {
		for i, c := range pop {
			t, q := c.Translation, c.Orientation
			fmt.Fprintf(&b, "%s g%d i%d s=%s t=%s,%s,%s q=%s,%s,%s,%s", label, gen, i,
				bits(c.Score), bits(t.X), bits(t.Y), bits(t.Z), bits(q.W), bits(q.X), bits(q.Y), bits(q.Z))
			b.WriteByte('\n')
		}
	}

	for ci, c := range cases {
		ctx := testCtx(uint64(1000 + ci))
		target := ctx.Spot.Center.Add(vec.New(3, -1, 2))
		score := func(x conformation.Conformation) float64 {
			return x.Translation.Dist2(target) + 1 - x.Orientation.W*x.Orientation.W
		}
		p := c.alg.Params()
		state := c.alg.NewSpotState(ctx)
		seed := state.Seed()
		for i := range seed {
			seed[i].Score = score(seed[i])
		}
		state.Begin(seed)
		record(c.label, 0, state.Population())

		improveRNG := ctx.RNG.Split(1_000_000)
		for gen := 0; !state.Done(gen); gen++ {
			scom := state.Propose()
			for i := range scom {
				if !scom[i].Evaluated() {
					scom[i].Score = score(scom[i])
				}
			}
			for _, ti := range state.ImproveTargets(scom) {
				r := improveRNG.Split(uint64(gen)<<20 | uint64(ti))
				cur := scom[ti]
				for m := 0; m < p.ImproveMoves; m++ {
					cand := ctx.Sampler.Perturb(r, cur, p.moveScale())
					cand.Score = score(cand)
					if cand.Better(cur) {
						cur = cand
					}
				}
				scom[ti] = cur
			}
			state.Integrate(scom)
			record(c.label, gen+1, state.Population())
		}
		fmt.Fprintf(&b, "%s best %s\n", c.label, bits(state.Best().Score))
	}

	path := filepath.Join("testdata", "generations.golden")
	if *updateGenerations {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
