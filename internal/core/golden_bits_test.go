package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden of each test run from this build")

// TestEnergiesGolden pins Real-mode energies, as hex float64 bits, to bytes
// recorded by an earlier build: a rigid library screen, a multi-GPU pool
// run, and poses outside a spot's neighbour-list region, which the
// full-receptor fallback scores. The
// batching goldens compare two runs of one build; this one shows that a
// change to the scoring path kept every bit. Regenerate with -update only
// when an energy change is intended.
func TestEnergiesGolden(t *testing.T) {
	var b strings.Builder
	bits := func(e float64) string { return fmt.Sprintf("%016x", math.Float64bits(e)) }
	spots := func(label string, res *Result) {
		for _, sr := range res.Spots {
			fmt.Fprintf(&b, "%s spot %d %s\n", label, sr.Spot.ID, bits(sr.Best.Score))
		}
		fmt.Fprintf(&b, "%s best %s evals %d\n", label, bits(res.Best.Score), res.Evaluations)
	}

	rec := molecule.SyntheticProtein("rec", 500, 41)
	library := []*molecule.Molecule{
		molecule.SyntheticLigand("lig-a", 10, 1),
		molecule.SyntheticLigand("lig-b", 18, 2),
		molecule.SyntheticLigand("lig-c", 25, 3),
	}
	screen, err := ScreenCtx(context.Background(), rec, library,
		surface.Options{MaxSpots: 2}, forcefield.Options{},
		screenAlgFactory(), HostBackendFactory(HostConfig{Real: true, Workers: 2}), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range screen.Ranking {
		fmt.Fprintf(&b, "rigid-lj %s %s evals %d\n", e.Ligand.Name, bits(e.Result.Best.Score), e.Result.Evaluations)
	}

	p := smallProblem(t)
	pb, err := NewPoolBackend(p, PoolConfig{
		Real: true, Specs: []cudasim.DeviceSpec{cudasim.GTX580, cudasim.TeslaK40c},
		Mode: sched.Heterogeneous, Seed: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), p, smallAlg(t), pb, 13)
	if err != nil {
		t.Fatal(err)
	}
	spots("pool", res)

	// Poses pushed into the receptor, out of the spot's region: the
	// neighbour list cannot cover them, so the batched and the one-pose
	// paths both score them with the full-receptor fallback.
	confs := makeConfs(p, 16, 19)
	nl := p.SpotNeighborLists(p.rec.CellList())[0]
	shift := p.Spots[0].Normal.Scale(-(p.Spots[0].Radius + p.LigandRadius() + 2))
	buf := make([]vec.V3, len(p.LigandPositions()))
	uncovered := 0
	for _, c := range confs {
		c.Translation = c.Translation.Add(shift)
		c.Apply(p.LigandPositions(), buf)
		if !nl.Covers(buf) {
			uncovered++
		}
	}
	if uncovered < len(confs)/2 {
		t.Fatalf("only %d of %d shifted poses leave the neighbour list", uncovered, len(confs))
	}
	for _, disable := range []bool{false, true} {
		hb, err := NewHostBackend(p, HostConfig{Real: true, Workers: 1, DisableBatch: disable})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range confs {
			c.Score = conformation.Unscored
		}
		hb.ScoreBatch(confs)
		for i, c := range confs {
			fmt.Fprintf(&b, "fallback batch=%v %d %s\n", !disable, i, bits(c.Score))
		}
	}

	golden := filepath.Join("testdata", "energies.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("energies drifted from %s at line %d: got %q, want %q", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("energies drifted from %s: %d lines, want %d", golden, len(g), len(w))
	}
}
