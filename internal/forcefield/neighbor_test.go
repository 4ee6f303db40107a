package forcefield

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

// referenceScan is the neighbour list's scoring semantics with no gather:
// every ligand atom scans the whole list in ascending order into one
// accumulator. ScorePose must reproduce its float64 bits exactly.
func (nl *NeighborList) referenceScan(ligPos []vec.V3) float64 {
	const cutoff2 = Cutoff * Cutoff
	e := 0.0
	for j, lp := range ligPos {
		lt := int32(nl.lig.Type[j])
		for k := range nl.x {
			dx := nl.x[k] - lp.X
			dy := nl.y[k] - lp.Y
			dz := nl.z[k] - lp.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 > cutoff2 {
				continue
			}
			if r2 < minDist2 {
				r2 = minDist2
			}
			p := nl.table[int32(nl.typ[k])*int32(numTypes)+lt]
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			e += inv6 * (p.A*inv6 - p.B)
		}
	}
	return e
}

// pairsInRange counts the (ligand atom, list atom) pairs inside the cutoff:
// the useful work of one evaluation, whatever the candidate set.
func (nl *NeighborList) pairsInRange(ligPos []vec.V3) int {
	const cutoff2 = Cutoff * Cutoff
	n := 0
	for _, lp := range ligPos {
		for k := range nl.x {
			dx := nl.x[k] - lp.X
			dy := nl.y[k] - lp.Y
			dz := nl.z[k] - lp.Z
			if dx*dx+dy*dy+dz*dz <= cutoff2 {
				n++
			}
		}
	}
	return n
}

// spotFixture is a dataset prepared the way core.NewProblem prepares it:
// receptor topology and spots, centered ligand, receptor cell list.
type spotFixture struct {
	rec, lig  *Topology
	ligRadius float64
	cells     *CellList
	spots     []surface.Spot
}

func newSpotFixture(tb testing.TB, recM, ligM *molecule.Molecule, maxSpots int) *spotFixture {
	tb.Helper()
	spots, err := surface.FindSpots(recM, surface.Options{MaxSpots: maxSpots})
	if err != nil {
		tb.Fatal(err)
	}
	ligM = ligM.Centered()
	f := &spotFixture{
		rec: NewTopology(recM), lig: NewTopology(ligM),
		ligRadius: ligM.Radius(), spots: spots,
	}
	f.cells = NewCellList(f.rec, f.lig)
	return f
}

// spotList builds a spot's neighbour list over the region
// core.Problem.SpotNeighborLists gives it: the sampler's sphere padded by
// the ligand's radius.
func (f *spotFixture) spotList(s surface.Spot) *NeighborList {
	base := s.Center.Add(s.Normal.Scale(f.ligRadius + 1.5))
	half := vec.V3{X: 1, Y: 1, Z: 1}.Scale(s.Radius + f.ligRadius + 1e-6)
	return NewNeighborList(f.cells, f.rec, vec.NewAABB(base.Sub(half), base.Add(half)))
}

// samplerPoses returns n poses the spot's sampler produces — fresh random
// individuals and local-search perturbations of them — which are the poses
// the engine scores.
func (f *spotFixture) samplerPoses(s surface.Spot, r *rng.Source, n int) [][]vec.V3 {
	sampler := conformation.NewSampler(s, f.ligRadius)
	poses := make([][]vec.V3, n)
	var c conformation.Conformation
	for i := range poses {
		if i%2 == 0 {
			c = sampler.Random(r)
		} else {
			c = sampler.Perturb(r, c, conformation.DefaultMoveScale)
		}
		poses[i] = make([]vec.V3, f.lig.Len())
		c.Apply(f.lig.Pos, poses[i])
	}
	return poses
}

// checkBits asserts ScorePose reproduces the reference scan's bits. The
// tests below run once per kernel (see eachKernel).
func checkBits(t *testing.T, nl *NeighborList, pose []vec.V3, s *NeighborScratch, what string) (covered bool) {
	t.Helper()
	got, covered := nl.ScorePose(pose, s)
	want := nl.referenceScan(pose)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: ScorePose %v (%#x) != full scan %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if covered != nl.Covers(pose) {
		t.Errorf("%s: ScorePose covered=%v, Covers=%v", what, covered, nl.Covers(pose))
	}
	return covered
}

// TestNeighborListBitIdenticalOnDatasets is the differential test of the
// pose-local gather: at every spot of both paper datasets, sampler-produced
// poses score to exactly the bits of the full ascending scan, and agree
// with the cell-list scorer.
func TestNeighborListBitIdenticalOnDatasets(t *testing.T) {
	eachKernel(t, testNeighborListBitIdenticalOnDatasets)
}

func testNeighborListBitIdenticalOnDatasets(t *testing.T) {
	for _, ds := range []struct {
		name     string
		rec, lig *molecule.Molecule
	}{
		{"2BSM", molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand()},
		{"2BXG", molecule.Synthetic2BXGReceptor(), molecule.Synthetic2BXGLigand()},
	} {
		f := newSpotFixture(t, ds.rec, ds.lig, 0)
		r := rng.New(17)
		var s NeighborScratch
		for _, spot := range f.spots {
			nl := f.spotList(spot)
			for i, pose := range f.samplerPoses(spot, r, 4) {
				what := fmt.Sprintf("%s spot %d pose %d", ds.name, spot.ID, i)
				if !checkBits(t, nl, pose, &s, what) {
					t.Errorf("%s: rigid sampler pose not covered", what)
				}
				got, _ := nl.ScorePose(pose, &s)
				if full := f.cells.Score(pose); math.Abs(got-full) > 1e-9*(1+math.Abs(full)) {
					t.Errorf("%s: list %v vs cell list %v", what, got, full)
				}
			}
		}
	}
}

// TestNeighborListBoundaryAndOutside pins the edges of coverage: a pose
// touching the region boundary is covered; a pose outside it is reported
// uncovered (the engine then falls back to the full scorer) while its
// energy over the list still has the full scan's bits.
func TestNeighborListBoundaryAndOutside(t *testing.T) {
	eachKernel(t, testNeighborListBoundaryAndOutside)
}

func testNeighborListBoundaryAndOutside(t *testing.T) {
	f := newSpotFixture(t, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 4)
	var s NeighborScratch
	for _, spot := range f.spots {
		nl := f.spotList(spot)
		region := nl.Region()
		pose := f.samplerPoses(spot, rng.New(5), 1)[0]
		box := vec.BoundPoints(pose)

		// Slide the pose until its box touches the region's upper corner.
		touching := make([]vec.V3, len(pose))
		for i, p := range pose {
			touching[i] = p.Add(region.Hi.Sub(box.Hi))
		}
		if !checkBits(t, nl, touching, &s, fmt.Sprintf("spot %d touching", spot.ID)) {
			t.Errorf("spot %d: pose touching the boundary not covered (box %v, region %v)",
				spot.ID, vec.BoundPoints(touching), region)
		}

		// Slide further: one atom pokes out, then the whole pose leaves.
		for _, shift := range []float64{0.5, 3 * Cutoff} {
			outside := make([]vec.V3, len(pose))
			for i, p := range touching {
				outside[i] = p.Add(vec.New(shift, 0, 0))
			}
			if checkBits(t, nl, outside, &s, fmt.Sprintf("spot %d outside by %g", spot.ID, shift)) {
				t.Errorf("spot %d: pose %g A outside the region reported covered", spot.ID, shift)
			}
		}
	}
}

// TestNeighborListEmpty scores against lists with no atoms: a region beyond
// the cutoff of the receptor, and the empty region.
func TestNeighborListEmpty(t *testing.T) { eachKernel(t, testNeighborListEmpty) }

func testNeighborListEmpty(t *testing.T) {
	rec := NewTopology(molecule.SyntheticProtein("rec", 200, 3))
	lig := NewTopology(molecule.SyntheticLigand("lig", 6, 4))
	cells := NewCellList(rec, lig)
	far := vec.BoundPoints(rec.Pos).Hi.Add(vec.New(100, 100, 100))
	pose := randomPose(rng.New(1), lig.Len(), far, 2)
	var s NeighborScratch

	nl := NewNeighborList(cells, rec, vec.NewAABB(far.Sub(vec.New(5, 5, 5)), far.Add(vec.New(5, 5, 5))))
	if nl.Len() != 0 {
		t.Fatalf("far region gathered %d atoms", nl.Len())
	}
	if e, covered := nl.ScorePose(pose, &s); e != 0 || !covered {
		t.Errorf("empty list: score %v covered %v, want 0 true", e, covered)
	}
	if e := nl.Score(pose); e != 0 {
		t.Errorf("empty list: Score %v, want 0", e)
	}

	none := NewNeighborList(cells, rec, vec.AABB{})
	if e, covered := none.ScorePose(pose, &s); e != 0 || covered {
		t.Errorf("empty region: score %v covered %v, want 0 false", e, covered)
	}
}

// TestNeighborScratchGrows reuses one scratch across lists of growing
// length: a gather larger than the scratch's capacity must grow it, not
// truncate the candidate set.
func TestNeighborScratchGrows(t *testing.T) { eachKernel(t, testNeighborScratchGrows) }

func testNeighborScratchGrows(t *testing.T) {
	f := newSpotFixture(t, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 1)
	spot := f.spots[0]
	pose := f.samplerPoses(spot, rng.New(9), 1)[0]
	box := vec.BoundPoints(pose)
	var s NeighborScratch
	prev := -1
	for _, pad := range []float64{0, 4, 40} {
		nl := NewNeighborList(f.cells, f.rec, box.Pad(pad))
		if nl.Len() <= prev {
			t.Fatalf("pad %g: list of %d atoms does not outgrow %d", pad, nl.Len(), prev)
		}
		prev = nl.Len()
		checkBits(t, nl, pose, &s, fmt.Sprintf("pad %g (%d atoms, scratch cap %d)", pad, nl.Len(), cap(s.pose[0].x)))
		if cap(s.pose[0].x) < nl.Len() {
			t.Errorf("pad %g: scratch capacity %d below list length %d", pad, cap(s.pose[0].x), nl.Len())
		}
	}
}

// TestNeighborListSharedAcrossWorkers scores through one list from four
// goroutines at once, two with their own scratch and two through the
// scratch-less Score and ScoreBatch, each checking the reference bits. Run
// under -race it is the data-race check of the shared list.
func TestNeighborListSharedAcrossWorkers(t *testing.T) {
	eachKernel(t, testNeighborListSharedAcrossWorkers)
}

func testNeighborListSharedAcrossWorkers(t *testing.T) {
	f := newSpotFixture(t, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 1)
	spot := f.spots[0]
	nl := f.spotList(spot)
	poses := f.samplerPoses(spot, rng.New(41), 32)
	want := make([]float64, len(poses))
	for i, pose := range poses {
		want[i] = nl.referenceScan(pose)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s NeighborScratch
			out := make([]float64, len(poses))
			for round := 0; round < 8; round++ {
				switch w {
				case 0, 1:
					for i, pose := range poses {
						out[i], _ = nl.ScorePose(pose, &s)
					}
				case 2:
					for i, pose := range poses {
						out[i] = nl.Score(pose)
					}
				default:
					nl.ScoreBatch(poses, out)
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Errorf("worker %d round %d pose %d: %v != %v", w, round, i, out[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScorePosesMatchesScorePose scores batches of 1, 2, 3 and 63 poses
// two at a time in lockstep and requires each pose's score and coverage
// to be ScorePose's. The batches mix poses of two spots against one
// spot's list, and one pose of a pair is moved out of the region.
func TestScorePosesMatchesScorePose(t *testing.T) { eachKernel(t, testScorePosesMatchesScorePose) }

func testScorePosesMatchesScorePose(t *testing.T) {
	f := newSpotFixture(t, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 2)
	nl := f.spotList(f.spots[0])
	r := rng.New(61)
	mine := f.samplerPoses(f.spots[0], r, 63)
	other := f.samplerPoses(f.spots[1], r, 63)
	var s, one NeighborScratch
	for _, n := range []int{1, 2, 3, 63} {
		poses := make([][]vec.V3, n)
		for i := range poses {
			if i%3 == 2 {
				poses[i] = other[i]
			} else {
				poses[i] = mine[i]
			}
		}
		// The second pose of the first pair leaves the region.
		if n > 1 {
			out := make([]vec.V3, len(poses[1]))
			for i, p := range poses[1] {
				out[i] = p.Add(vec.New(0, 0, 3*Cutoff))
			}
			poses[1] = out
		}
		out, covered := make([]float64, n), make([]bool, n)
		nl.ScorePoses(poses, out, covered, &s)
		for i, pose := range poses {
			want, wantCovered := nl.ScorePose(pose, &one)
			if math.Float64bits(out[i]) != math.Float64bits(want) || covered[i] != wantCovered {
				t.Errorf("batch %d pose %d: lockstep %v covered=%v, alone %v covered=%v",
					n, i, out[i], covered[i], want, wantCovered)
			}
		}
		if n > 1 && covered[1] {
			t.Errorf("batch %d: pose moved out of the region reported covered", n)
		}
	}
}
