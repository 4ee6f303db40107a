package forcefield

import (
	"math"
	"slices"
	"sync/atomic"

	"github.com/metascreen/metascreen/internal/vec"
)

// NeighborList is the precomputed receptor neighbourhood of one search
// region: exactly the receptor atoms whose distance to the region's box is
// at most the interaction cutoff, packed in structure-of-arrays form in
// ascending original-atom order.
//
// Metaheuristic search confines every pose of a spot to a fixed region, so
// the list is built once per (receptor, ligand, spot) and reused across all
// generations. The region is several times wider than one pose, though, so
// most of the list is out of range of any single pose: scoring first
// gathers the pose-local candidates — the list atoms within the cutoff of
// the pose's own bounding box — into a compact scratch, and only those are
// visited per ligand atom. This is the host analogue of staging a
// binding-site neighbourhood once in GPU shared memory and reusing it for
// every atom of the pose.
type NeighborList struct {
	lig    *Topology
	table  *PairTable
	opts   Options
	region vec.AABB

	// idx holds the original receptor atom indices, ascending.
	idx []int32
	// Atom data in idx order.
	x, y, z []float64
	typ     []uint8
	chg     []float64
	// runs[r] bounds list atoms [r*runLen, (r+1)*runLen): consecutive
	// receptor atoms follow the chain, so a run is spatially compact and a
	// pose rejects most of the list one box test per run.
	runs []runBox

	// spare parks one scratch between calls of the scratch-less Score and
	// ScoreBatch, so a single caller allocates nothing in steady state;
	// concurrent callers that find it taken make their own.
	spare atomic.Pointer[NeighborScratch]
}

// runLen is the number of list atoms per bounding-boxed run. Shorter runs
// cull more atoms but spend more box tests; 32 measured fastest on the
// paper's receptors (see EXPERIMENTS.md).
const runLen = 32

// runBox is the bounding box of one run of list atoms.
type runBox struct{ lo, hi [3]float64 }

// NeighborScratch is the caller-owned workspace NeighborList.ScorePose
// gathers a pose's candidates into. The zero value is ready to use; it
// grows to the longest list it has served and is then reused without
// allocating. A scratch must not be shared between concurrent calls.
type NeighborScratch struct {
	// The pose's candidates, in list order, and their list indices.
	x, y, z, chg []float64
	typ          []uint8
	idx          []int32
	// The candidates in range of the current ligand atom: index into the
	// arrays above and squared distance.
	hit []int32
	r2  []float64
}

// reserve makes room for n candidates.
func (s *NeighborScratch) reserve(n int) {
	if cap(s.x) >= n {
		return
	}
	s.x = make([]float64, n)
	s.y = make([]float64, n)
	s.z = make([]float64, n)
	s.chg = make([]float64, n)
	s.typ = make([]uint8, n)
	s.idx = make([]int32, n)
	s.hit = make([]int32, n)
	s.r2 = make([]float64, n)
}

// NewNeighborList gathers the receptor atoms within Cutoff of region using
// cell-list bins (O(region volume), not O(receptor)). The region must
// contain every ligand atom of every pose the list will score; ScorePose
// checks a pose at runtime so callers can fall back to a full scorer for
// out-of-region poses.
func NewNeighborList(cells *CellList, rec *Topology, region vec.AABB) *NeighborList {
	nl := &NeighborList{
		lig: cells.lig, table: cells.table, opts: cells.opts, region: region,
	}
	if region.Empty() || rec.Len() == 0 {
		return nl
	}
	const cutoff2 = Cutoff * Cutoff
	// Cells overlapping the region padded by the cutoff; cellSize==Cutoff,
	// so one extra cell ring on each side suffices.
	pad := region.Pad(Cutoff)
	lo := pad.Lo.Sub(cells.origin)
	hi := pad.Hi.Sub(cells.origin)
	ix0 := clamp(int(lo.X/cells.cellSize), 0, cells.nx-1)
	iy0 := clamp(int(lo.Y/cells.cellSize), 0, cells.ny-1)
	iz0 := clamp(int(lo.Z/cells.cellSize), 0, cells.nz-1)
	ix1 := clamp(int(hi.X/cells.cellSize), 0, cells.nx-1)
	iy1 := clamp(int(hi.Y/cells.cellSize), 0, cells.ny-1)
	iz1 := clamp(int(hi.Z/cells.cellSize), 0, cells.nz-1)
	for ix := ix0; ix <= ix1; ix++ {
		for iy := iy0; iy <= iy1; iy++ {
			row := (ix*cells.ny + iy) * cells.nz
			for k := cells.cellStart[row+iz0]; k < cells.cellStart[row+iz1+1]; k++ {
				p := vec.V3{X: cells.px[k], Y: cells.py[k], Z: cells.pz[k]}
				if region.Dist2ToPoint(p) <= cutoff2 {
					nl.idx = append(nl.idx, cells.atomIdx[k])
				}
			}
		}
	}
	// Cell traversal order is not atom order; restore ascending indices so
	// the summation order is deterministic and matches Direct's.
	slices.Sort(nl.idx)
	n := len(nl.idx)
	nl.x = make([]float64, n)
	nl.y = make([]float64, n)
	nl.z = make([]float64, n)
	nl.typ = make([]uint8, n)
	nl.chg = make([]float64, n)
	nl.runs = make([]runBox, (n+runLen-1)/runLen)
	for i, ai := range nl.idx {
		p := rec.Pos[ai]
		nl.x[i], nl.y[i], nl.z[i] = p.X, p.Y, p.Z
		nl.typ[i] = rec.Type[ai]
		nl.chg[i] = rec.Charge[ai]
		c := [3]float64{p.X, p.Y, p.Z}
		b := &nl.runs[i/runLen]
		if i%runLen == 0 {
			b.lo, b.hi = c, c
		}
		for a := range c {
			b.lo[a] = min(b.lo[a], c[a])
			b.hi[a] = max(b.hi[a], c[a])
		}
	}
	return nl
}

// Len returns the number of receptor atoms in the list.
func (nl *NeighborList) Len() int { return len(nl.idx) }

// Indices returns the gathered receptor atom indices in ascending order.
// Callers must not mutate the slice.
func (nl *NeighborList) Indices() []int32 { return nl.idx }

// Region returns the ligand-atom region the list covers.
func (nl *NeighborList) Region() vec.AABB { return nl.region }

// Covers reports whether every atom of the pose lies inside the covered
// region, i.e. whether Score over this list is exact for the pose.
func (nl *NeighborList) Covers(pose []vec.V3) bool {
	for _, p := range pose {
		if !nl.region.Contains(p) {
			return false
		}
	}
	return true
}

// Name implements Scorer.
func (nl *NeighborList) Name() string { return "neighborlist" }

// takeScratch returns the list's spare scratch, or a new one.
func (nl *NeighborList) takeScratch() *NeighborScratch {
	if s := nl.spare.Swap(nil); s != nil {
		return s
	}
	return new(NeighborScratch)
}

// Score implements Scorer with the list's spare scratch. The caller must
// ensure the pose is covered (see Covers); atoms outside the region would
// silently miss interactions.
func (nl *NeighborList) Score(ligPos []vec.V3) float64 {
	s := nl.takeScratch()
	e, _ := nl.ScorePose(ligPos, s)
	nl.spare.Store(s)
	return e
}

// ScoreBatch implements BatchScorer: one scratch serves the whole batch,
// each pose scored exactly as Score would.
func (nl *NeighborList) ScoreBatch(poses [][]vec.V3, out []float64) {
	checkBatch(poses, out)
	s := nl.takeScratch()
	for i, pose := range poses {
		out[i], _ = nl.ScorePose(pose, s)
	}
	nl.spare.Store(s)
}

// ScorePose scores a pose against its pose-local candidates, gathered into
// s, and reports whether the list covers the pose (see Covers). The energy
// of an uncovered pose may miss interactions; callers fall back to a full
// scorer for it.
//
// The gather only removes atoms out of range of every ligand atom, and the
// survivors keep their ascending order, arithmetic and single accumulator,
// so the score has exactly the bits a pair loop over the whole list
// produces for any pose with finite coordinates.
func (nl *NeighborList) ScorePose(ligPos []vec.V3, s *NeighborScratch) (e float64, covered bool) {
	checkPose(ligPos, nl.lig)
	n, covered := nl.gather(ligPos, s)
	cx, cy, cz, ctyp, cchg := s.x[:n], s.y[:n], s.z[:n], s.typ[:n], s.chg[:n]
	for j, lp := range ligPos {
		// Range test first, energies after: the energy loop runs over the
		// candidates in range alone.
		m := rangePass(cx, cy, cz, lp, s.hit, s.r2)
		hit, r2s := s.hit[:m], s.r2[:m]
		// The ligand type's row of the table: NewPairTable's mixing
		// commutes, so entry (lt, t) has the bits of entry (t, lt).
		row := nl.table[int(nl.lig.Type[j])*numTypes:][:numTypes]
		if !nl.opts.Coulomb {
			for i, k := range hit {
				lj, _ := pairLJ(r2s[i], row[ctyp[k]])
				e += lj
			}
			continue
		}
		lq := nl.lig.Charge[j]
		for i, k := range hit {
			lj, inv2 := pairLJ(r2s[i], row[ctyp[k]])
			e += lj
			e += coulombK * cchg[k] * lq * inv2 / 4
		}
	}
	return e, covered
}

// pairLJ returns the Lennard-Jones energy of a pair at squared distance r2,
// clamped at minDist2, and the clamped 1/r2 the Coulomb term reuses.
func pairLJ(r2 float64, p PairParam) (lj, inv2 float64) {
	if r2 < minDist2 {
		r2 = minDist2
	}
	inv2 = 1 / r2
	inv6 := inv2 * inv2 * inv2
	return inv6 * (p.A*inv6 - p.B), inv2
}

// rangePass stores the index k and squared distance r2 of every candidate
// (cx[k], cy[k], cz[k]) in range of p into hit and r2s, in ascending k, and
// returns their count. In range is !(r2 > cutoff²): the full scan's skip
// test negated, so a NaN r2 counts. hit and r2s must hold len(cx) entries.
// It is rangePassGo, or on a CPU that runs it the AVX2 kernel of
// kernel_amd64.s, which stores the same bits; init picks once.
var rangePass = rangePassGo

// rangePassGo is the portable rangePass.
func rangePassGo(cx, cy, cz []float64, p vec.V3, hit []int32, r2s []float64) int {
	return rangeFrom(cx, cy, cz, p, hit, r2s, 0, 0)
}

// rangeFrom runs the portable range pass over candidates k0 onwards,
// storing from slot m, and returns the new count.
func rangeFrom(cx, cy, cz []float64, p vec.V3, hit []int32, r2s []float64, k0, m int) int {
	const cutoff2 = Cutoff * Cutoff
	cy, cz = cy[:len(cx)], cz[:len(cx)]
	for k := k0; k < len(cx); k++ {
		dx := cx[k] - p.X
		dy := cy[k] - p.Y
		dz := cz[k] - p.Z
		r2 := dx*dx + dy*dy + dz*dz
		// Store every candidate at slot m, advance m only for a hit: this
		// compiles to a conditional move, so the three-in-four candidates
		// that miss cost no branch misprediction.
		hit[m], r2s[m] = int32(k), r2
		if !(r2 > cutoff2) {
			m++
		}
	}
	return m
}

// gather copies the list atoms within the cutoff of the pose's bounding box
// into s, in list order, and returns their count. The same pass over the
// pose answers Covers.
func (nl *NeighborList) gather(ligPos []vec.V3, s *NeighborScratch) (n int, covered bool) {
	if len(ligPos) == 0 {
		return 0, true
	}
	first := ligPos[0]
	lo := [3]float64{first.X, first.Y, first.Z}
	hi := lo
	covered = true
	for _, p := range ligPos {
		lo[0], hi[0] = min(lo[0], p.X), max(hi[0], p.X)
		lo[1], hi[1] = min(lo[1], p.Y), max(hi[1], p.Y)
		lo[2], hi[2] = min(lo[2], p.Z), max(hi[2], p.Z)
		covered = covered && nl.region.Contains(p)
	}
	// An atom may only be dropped if the pair loop would have skipped it
	// for every ligand atom. The box tests below round differently from
	// the pair loop's r2, so the box is first padded by 2^-30 of the
	// coordinates' magnitude — a million times their rounding error, and
	// far too little to let a useful number of extra atoms in. c and h
	// are the padded box as center and half-width.
	var c, h [3]float64
	for a := range c {
		pad := 0x1p-30 * (max(math.Abs(lo[a]), math.Abs(hi[a])) + Cutoff)
		lo[a] -= pad
		hi[a] += pad
		c[a], h[a] = (lo[a]+hi[a])/2, (hi[a]-lo[a])/2
	}
	const cutoff2 = Cutoff * Cutoff
	s.reserve(len(nl.x))
	for r := range nl.runs {
		// A run beyond the cutoff of the pose box goes as a whole.
		b := &nl.runs[r]
		if boxGap2(b.lo[0], b.hi[0], lo[0], hi[0])+
			boxGap2(b.lo[1], b.hi[1], lo[1], hi[1])+
			boxGap2(b.lo[2], b.hi[2], lo[2], hi[2]) > cutoff2 {
			continue
		}
		n = gatherSpan(nl.x, nl.y, nl.z, r*runLen, min((r+1)*runLen, len(nl.x)), c, h, s, n)
	}
	// Types and charges follow by index, so the kernels move only the
	// float64 coordinates and the int32 indices.
	for i, k := range s.idx[:n] {
		s.typ[i], s.chg[i] = nl.typ[k], nl.chg[k]
	}
	return n, covered
}

// gatherSpan stores x, y, z and index k of every atom k0 <= k < k1 that may
// lie within the cutoff of the box with center c and half-width h into s
// from slot n, in ascending k, and returns the new count. It keeps an atom
// unless its squared gap to the box exceeds cutoff², tested as twice the gap
// against 4*cutoff². n must not exceed k0, and s must hold k1 entries. It is
// gatherSpanGo, or on a CPU that runs it the AVX2 kernel of kernel_amd64.s,
// which stores the same bits; init picks once.
var gatherSpan = gatherSpanGo

// gatherSpanGo is the portable gatherSpan.
func gatherSpanGo(x, y, z []float64, k0, k1 int, c, h [3]float64, s *NeighborScratch, n int) int {
	const cutoff2 = Cutoff * Cutoff
	x, y, z = x[:k1], y[:k1], z[:k1]
	for k := k0; k < k1; k++ {
		// The atom's gap to the box on one axis is |x-c| - h clamped at
		// 0, and g + |g| is twice that without a branch.
		gx := math.Abs(x[k]-c[0]) - h[0]
		gy := math.Abs(y[k]-c[1]) - h[1]
		gz := math.Abs(z[k]-c[2]) - h[2]
		gx += math.Abs(gx)
		gy += math.Abs(gy)
		gz += math.Abs(gz)
		// Copy first, keep after: advancing n only for an atom in range
		// compiles to a conditional move, where a skip would be a branch
		// mispredicted for every third atom.
		s.x[n], s.y[n], s.z[n], s.idx[n] = x[k], y[k], z[k], int32(k)
		if !(gx*gx+gy*gy+gz*gz > 4*cutoff2) {
			n++
		}
	}
	return n
}

// boxGap2 returns the squared gap between intervals [alo, ahi] and
// [blo, bhi] on one axis, 0 where they overlap.
func boxGap2(alo, ahi, blo, bhi float64) float64 {
	if d := alo - bhi; d > 0 {
		return d * d
	}
	if d := blo - ahi; d > 0 {
		return d * d
	}
	return 0
}
