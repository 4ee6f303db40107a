package forcefield

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// batchList builds a neighbour list over one synthetic receptor/ligand
// pair whose region is wide enough to cover every pose the tests generate,
// so its Score is exact for all of them.
func batchList(t *testing.T) (rec, lig *Topology, nl *NeighborList) {
	t.Helper()
	rec = NewTopology(molecule.SyntheticProtein("rec", 700, 5))
	lig = NewTopology(molecule.SyntheticLigand("lig", 20, 6))
	cells := NewCellList(rec, lig)
	center := vec.Centroid(rec.Pos)
	half := vec.New(60, 60, 60)
	return rec, lig, NewNeighborList(cells, rec, vec.NewAABB(center.Sub(half), center.Add(half)))
}

// TestScoreBatchBitIdenticalToScore is the core differential property of the
// batched hot path: ScoreBatch must assign exactly the float64 bits looped
// Score would, for any batch size including the empty batch.
func TestScoreBatchBitIdenticalToScore(t *testing.T) {
	rec, lig, nl := batchList(t)
	r := rng.New(99)
	center := vec.Centroid(rec.Pos)
	pool := make([][]vec.V3, 16)
	for i := range pool {
		// Surface, buried, and clashing poses alike.
		pool[i] = randomPose(r, lig.Len(), center.Add(r.InSphere(30)), 4)
	}
	for _, n := range []int{0, 1, 2, 3, 7, len(pool)} {
		batch := pool[:n]
		out := make([]float64, n)
		for i := range out {
			out[i] = math.NaN() // catch unwritten outputs
		}
		nl.ScoreBatch(batch, out)
		for i := range batch {
			if want := nl.Score(batch[i]); out[i] != want {
				t.Errorf("n=%d pose %d: batch %v != loop %v", n, i, out[i], want)
			}
		}
	}
}

// TestScoreBatchSingleAtomDegenerate exercises the smallest possible
// topologies: one receptor atom, one ligand atom, poses straddling the
// clamp, the well, and the cutoff.
func TestScoreBatchSingleAtomDegenerate(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero)
	lig := pairMolecule(molecule.Oxygen, vec.Zero)
	cells := NewCellList(rec, lig)
	half := vec.New(20, 20, 20)
	nl := NewNeighborList(cells, rec, vec.NewAABB(half.Scale(-1), half))
	poses := [][]vec.V3{
		{vec.Zero},                   // clamped clash
		{vec.New(3.5, 0, 0)},         // near the LJ well
		{vec.New(Cutoff-0.01, 0, 0)}, // just inside the cutoff
		{vec.New(Cutoff+5, 0, 0)},    // beyond the cutoff
	}
	out := make([]float64, len(poses))
	nl.ScoreBatch(poses, out)
	for i, pose := range poses {
		if want := nl.Score(pose); out[i] != want {
			t.Errorf("pose %d: batch %v != loop %v", i, out[i], want)
		}
	}
}

// TestScoreBatchPanicsOnLengthMismatch pins the contract that a
// poses/outputs length mismatch is a programming error, not a silent
// truncation.
func TestScoreBatchPanicsOnLengthMismatch(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero)
	lig := pairMolecule(molecule.Carbon, vec.Zero)
	cells := NewCellList(rec, lig)
	half := vec.New(15, 15, 15)
	nl := NewNeighborList(cells, rec, vec.NewAABB(half.Scale(-1), half))
	poses := [][]vec.V3{{vec.New(4, 0, 0)}, {vec.New(5, 0, 0)}}
	defer func() {
		if recover() == nil {
			t.Error("no panic for mismatched batch lengths")
		}
	}()
	nl.ScoreBatch(poses, make([]float64, 1))
}

// TestScoreBatchAllocFree pins ScoreBatch's contract that it allocates
// nothing per call: steady-state batched scoring with reused buffers must be
// alloc-free.
func TestScoreBatchAllocFree(t *testing.T) {
	rec := NewTopology(molecule.SyntheticProtein("rec", 300, 7))
	lig := NewTopology(molecule.SyntheticLigand("lig", 10, 8))
	cells := NewCellList(rec, lig)
	center := vec.Centroid(rec.Pos)
	half := vec.New(40, 40, 40)
	nl := NewNeighborList(cells, rec, vec.NewAABB(center.Sub(half), center.Add(half)))
	r := rng.New(3)
	poses := make([][]vec.V3, 8)
	for i := range poses {
		poses[i] = randomPose(r, lig.Len(), center.Add(r.InSphere(10)), 3)
	}
	out := make([]float64, len(poses))
	if allocs := testing.AllocsPerRun(10, func() { nl.ScoreBatch(poses, out) }); allocs != 0 {
		t.Errorf("ScoreBatch allocates %.1f per call, want 0", allocs)
	}
}
