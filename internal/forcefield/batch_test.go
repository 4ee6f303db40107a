package forcefield

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// batchScorers builds every BatchScorer implementation over one synthetic
// receptor/ligand pair. The neighbor list's region is wide enough to cover
// every pose the tests generate, so its Score is exact for all of them.
func batchScorers(t *testing.T, opts Options) (rec, lig *Topology, scorers []BatchScorer) {
	t.Helper()
	rec = NewTopology(molecule.SyntheticProtein("rec", 700, 5))
	lig = NewTopology(molecule.SyntheticLigand("lig", 20, 6))
	grid, err := NewGrid(rec, lig, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := NewCellList(rec, lig, opts)
	center := vec.Centroid(rec.Pos)
	half := vec.New(60, 60, 60)
	nl := NewNeighborList(cells, rec, vec.NewAABB(center.Sub(half), center.Add(half)))
	scorers = []BatchScorer{
		NewDirect(rec, lig, opts),
		NewTiled(rec, lig, opts),
		cells,
		grid,
		nl,
	}
	return rec, lig, scorers
}

// TestScoreBatchBitIdenticalToScore is the core differential property of the
// batched hot path: for every implementation, ScoreBatch must assign exactly
// the float64 bits looped Score would, for any batch size including the
// empty batch.
func TestScoreBatchBitIdenticalToScore(t *testing.T) {
	for _, opts := range []Options{{}, {Coulomb: true}} {
		rec, lig, scorers := batchScorers(t, opts)
		r := rng.New(99)
		center := vec.Centroid(rec.Pos)
		pool := make([][]vec.V3, 16)
		for i := range pool {
			// Surface, buried, and clashing poses alike.
			pool[i] = randomPose(r, lig.Len(), center.Add(r.InSphere(30)), 4)
		}
		for _, s := range scorers {
			for _, n := range []int{0, 1, 2, 3, 7, len(pool)} {
				batch := pool[:n]
				out := make([]float64, n)
				for i := range out {
					out[i] = math.NaN() // catch unwritten outputs
				}
				s.ScoreBatch(batch, out)
				for i := range batch {
					if want := s.Score(batch[i]); out[i] != want {
						t.Errorf("%s coulomb=%v n=%d pose %d: batch %v != loop %v",
							s.Name(), opts.Coulomb, n, i, out[i], want)
					}
				}
			}
		}
	}
}

// TestScoreBatchSingleAtomDegenerate exercises the smallest possible
// topologies: one receptor atom, one ligand atom, poses straddling the
// clamp, the well, and the cutoff.
func TestScoreBatchSingleAtomDegenerate(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero, 0.2)
	lig := pairMolecule(molecule.Oxygen, vec.Zero, -0.1)
	opts := Options{Coulomb: true}
	grid, err := NewGrid(rec, lig, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := NewCellList(rec, lig, opts)
	half := vec.New(20, 20, 20)
	nl := NewNeighborList(cells, rec, vec.NewAABB(half.Scale(-1), half))
	poses := [][]vec.V3{
		{vec.Zero},                   // clamped clash
		{vec.New(3.5, 0, 0)},         // near the LJ well
		{vec.New(Cutoff-0.01, 0, 0)}, // just inside the cutoff
		{vec.New(Cutoff+5, 0, 0)},    // beyond the cutoff
	}
	out := make([]float64, len(poses))
	for _, s := range []BatchScorer{
		NewDirect(rec, lig, opts), NewTiled(rec, lig, opts), cells, grid, nl,
	} {
		s.ScoreBatch(poses, out)
		for i, pose := range poses {
			if want := s.Score(pose); out[i] != want {
				t.Errorf("%s pose %d: batch %v != loop %v", s.Name(), i, out[i], want)
			}
		}
	}
}

// TestScoreBatchPanicsOnLengthMismatch pins the contract that a
// poses/outputs length mismatch is a programming error, not a silent
// truncation.
func TestScoreBatchPanicsOnLengthMismatch(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero, 0)
	lig := pairMolecule(molecule.Carbon, vec.Zero, 0)
	cells := NewCellList(rec, lig, Options{})
	half := vec.New(15, 15, 15)
	scorers := []BatchScorer{
		NewDirect(rec, lig, Options{}),
		NewTiled(rec, lig, Options{}),
		cells,
		NewNeighborList(cells, rec, vec.NewAABB(half.Scale(-1), half)),
	}
	if grid, err := NewGrid(rec, lig, Options{}, 0); err == nil {
		scorers = append(scorers, grid)
	} else {
		t.Fatal(err)
	}
	poses := [][]vec.V3{{vec.New(4, 0, 0)}, {vec.New(5, 0, 0)}}
	for _, s := range scorers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for mismatched batch lengths", s.Name())
				}
			}()
			s.ScoreBatch(poses, make([]float64, 1))
		}()
	}
}

// TestScoreBatchAllocFree pins the BatchScorer contract that implementations
// allocate nothing per call: steady-state batched scoring with reused
// buffers must be alloc-free.
func TestScoreBatchAllocFree(t *testing.T) {
	rec := NewTopology(molecule.SyntheticProtein("rec", 300, 7))
	lig := NewTopology(molecule.SyntheticLigand("lig", 10, 8))
	cells := NewCellList(rec, lig, Options{})
	center := vec.Centroid(rec.Pos)
	half := vec.New(40, 40, 40)
	nl := NewNeighborList(cells, rec, vec.NewAABB(center.Sub(half), center.Add(half)))
	grid, err := NewGrid(rec, lig, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	poses := make([][]vec.V3, 8)
	for i := range poses {
		poses[i] = randomPose(r, lig.Len(), center.Add(r.InSphere(10)), 3)
	}
	out := make([]float64, len(poses))
	for _, s := range []BatchScorer{
		NewDirect(rec, lig, Options{}), NewTiled(rec, lig, Options{}), cells, grid, nl,
	} {
		if allocs := testing.AllocsPerRun(10, func() { s.ScoreBatch(poses, out) }); allocs != 0 {
			t.Errorf("%s: ScoreBatch allocates %.1f per call, want 0", s.Name(), allocs)
		}
	}
}
