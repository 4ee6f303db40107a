package forcefield

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// FuzzNeighborListGather checks the cell-binned neighbor-list gather against
// brute-force pair enumeration: for a fuzzed search region over a fuzzed
// receptor, the gathered atom set must equal exactly the set of atoms within
// Cutoff of the region — no atom missed (coverage), none repeated (no
// duplicates), none beyond the cutoff (correctness) — in ascending index
// order.
func FuzzNeighborListGather(f *testing.F) {
	f.Add(uint64(1), 0.0, 0.0, 0.0, 8.0, 6.0, 10.0)
	f.Add(uint64(7), 15.0, -10.0, 3.0, 0.5, 0.5, 0.5)      // tiny region
	f.Add(uint64(42), -80.0, 70.0, -60.0, 20.0, 1.0, 40.0) // mostly off-receptor
	f.Add(uint64(3), 0.0, 0.0, 0.0, 200.0, 200.0, 200.0)   // swallows the receptor
	f.Add(uint64(9), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)         // degenerate point region
	f.Fuzz(func(t *testing.T, seed uint64, cx, cy, cz, hx, hy, hz float64) {
		for _, v := range []float64{cx, cy, cz, hx, hy, hz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite region")
			}
		}
		clamp := func(v, lim float64) float64 {
			return math.Min(math.Max(v, -lim), lim)
		}
		center := vec.New(clamp(cx, 200), clamp(cy, 200), clamp(cz, 200))
		half := vec.New(
			math.Min(math.Abs(hx), 100),
			math.Min(math.Abs(hy), 100),
			math.Min(math.Abs(hz), 100),
		)
		rec := NewTopology(molecule.SyntheticProtein("rec", 250, seed%1024+1))
		lig := NewTopology(molecule.SyntheticLigand("lig", 4, 2))
		cells := NewCellList(rec, lig)
		region := vec.NewAABB(center.Sub(half), center.Add(half))
		nl := NewNeighborList(cells, rec, region)

		const cutoff2 = Cutoff * Cutoff
		var want []int32
		for i, p := range rec.Pos {
			if region.Dist2ToPoint(p) <= cutoff2 {
				want = append(want, int32(i))
			}
		}
		got := nl.Indices()
		if len(got) != len(want) {
			t.Fatalf("gathered %d atoms, brute force %d (region %v)", len(got), len(want), region)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("index %d: gathered atom %d, brute force %d", i, got[i], want[i])
			}
			if i > 0 && got[i] <= got[i-1] {
				t.Fatalf("indices not strictly ascending at %d: %d after %d", i, got[i], got[i-1])
			}
		}
		if nl.Len() != len(want) {
			t.Fatalf("Len() = %d, want %d", nl.Len(), len(want))
		}
	})
}

// FuzzNeighborListScore checks the pose-local candidate gather against the
// full ascending scan: for a fuzzed receptor, search region and pose
// placement — inside the region, straddling its boundary or far outside —
// ScorePose must return exactly the scan's float64 bits, and its coverage
// answer must equal Covers.
func FuzzNeighborListScore(f *testing.F) {
	f.Add(uint64(1), 0.0, 0.0, 0.0, 8.0, 6.0, 10.0, 0.0, 0.0, 0.0, 3.0)
	f.Add(uint64(7), 15.0, -10.0, 3.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.1)       // pose on the corner of a tiny region
	f.Add(uint64(42), -80.0, 70.0, -60.0, 20.0, 1.0, 40.0, 0.5, 0.0, -0.5, 6.0) // mostly off-receptor
	f.Add(uint64(3), 0.0, 0.0, 0.0, 200.0, 200.0, 200.0, 0.1, -0.1, 0.05, 12.0) // list is the whole receptor
	f.Add(uint64(9), 5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 4.0, -4.0, 4.0, 2.0)      // pose far outside the region
	f.Add(uint64(11), 0.0, 0.0, 0.0, 12.0, 12.0, 12.0, 0.9, 0.9, 0.9, 30.0)     // pose wider than the region
	f.Fuzz(func(t *testing.T, seed uint64, cx, cy, cz, hx, hy, hz, fx, fy, fz, spread float64) {
		for _, v := range []float64{cx, cy, cz, hx, hy, hz, fx, fy, fz, spread} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		clamp := func(v, lim float64) float64 {
			return math.Min(math.Max(v, -lim), lim)
		}
		center := vec.New(clamp(cx, 200), clamp(cy, 200), clamp(cz, 200))
		half := vec.New(
			math.Min(math.Abs(hx), 100),
			math.Min(math.Abs(hy), 100),
			math.Min(math.Abs(hz), 100),
		)
		rec := NewTopology(molecule.SyntheticProtein("rec", 250, seed%1024+1))
		lig := NewTopology(molecule.SyntheticLigand("lig", 6, seed%7+2))
		cells := NewCellList(rec, lig)
		nl := NewNeighborList(cells, rec, vec.NewAABB(center.Sub(half), center.Add(half)))

		// The pose sits at a fraction of the region's half-extent from its
		// center (|f| > 1 is outside) and spreads up to `spread` angstroms.
		around := center.Add(vec.New(clamp(fx, 5)*half.X, clamp(fy, 5)*half.Y, clamp(fz, 5)*half.Z))
		pose := randomPose(rng.New(seed), lig.Len(), around, math.Min(math.Abs(spread), 50))

		var s NeighborScratch
		got, covered := nl.ScorePose(pose, &s)
		if want := nl.referenceScan(pose); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ScorePose %v (%#x) != full scan %v (%#x); region %v, pose box %v",
				got, math.Float64bits(got), want, math.Float64bits(want), nl.Region(), vec.BoundPoints(pose))
		}
		if covered != nl.Covers(pose) {
			t.Fatalf("ScorePose covered=%v, Covers=%v", covered, nl.Covers(pose))
		}
	})
}
