package forcefield

import (
	"fmt"
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
	region vec.AABB
	// rows[lt] is ligand type lt's row of table, in the kernels' layout.
	rows [numTypes]ljRow

	// idx holds the original receptor atom indices, ascending.
	idx []int32
	// Atom data in idx order.
	x, y, z []float64
	typ     []uint8
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
// and ScorePoses gather poses' candidates into. The zero value is ready to
// use; it grows to the longest list it has served and is then reused
// without allocating. A scratch must not be shared between concurrent
// calls.
type NeighborScratch struct {
	// pose holds one workspace per pose of a lockstep pair; a single pose
	// uses pose[0].
	pose [2]poseScratch
}

// poseScratch is one pose's share of a NeighborScratch.
type poseScratch struct {
	// The pose's candidates, in list order: coordinates, pair-table
	// column (the receptor atom's type) and list index.
	x, y, z  []float64
	typ, idx []int32
	// The hits of the current ligand atom, in candidate order: squared
	// distance and pair-table column.
	r2  []float64
	col []int32
}

// slack is the room every scratch array keeps past the list length: the
// vector kernels store whole groups of 8 lanes at the running count, and
// those stores may reach 7 slots past it.
const slack = 8

// reserve makes room for n candidates.
func (s *poseScratch) reserve(n int) {
	n += slack
	if cap(s.x) >= n {
		return
	}
	s.x = make([]float64, n)
	s.y = make([]float64, n)
	s.z = make([]float64, n)
	s.typ = make([]int32, n)
	s.idx = make([]int32, n)
	s.r2 = make([]float64, n)
	s.col = make([]int32, n)
}

// NewNeighborList gathers the receptor atoms within Cutoff of region using
// cell-list bins (O(region volume), not O(receptor)). The region must
// contain every ligand atom of every pose the list will score; ScorePose
// checks a pose at runtime so callers can fall back to a full scorer for
// out-of-region poses.
func NewNeighborList(cells *CellList, rec *Topology, region vec.AABB) *NeighborList {
	nl := &NeighborList{
		lig: cells.lig, table: cells.table, region: region,
	}
	for lt := range nl.rows {
		for t, p := range cells.table[lt*numTypes:][:numTypes] {
			nl.rows[lt].a[t], nl.rows[lt].b[t] = p.A, p.B
		}
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
	nl.runs = make([]runBox, (n+runLen-1)/runLen)
	for i, ai := range nl.idx {
		p := rec.Pos[ai]
		nl.x[i], nl.y[i], nl.z[i] = p.X, p.Y, p.Z
		nl.typ[i] = rec.Type[ai]
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

// ScoreBatch stores Score(poses[i]) into out[i] for every i: one scratch
// serves the whole batch, each pose scored exactly as Score would. It
// panics unless len(out) == len(poses).
func (nl *NeighborList) ScoreBatch(poses [][]vec.V3, out []float64) {
	s := nl.takeScratch()
	nl.ScorePoses(poses, out, nil, s)
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
	e, _, covered, _ = nl.scorePair(ligPos, nil, s)
	return e, covered
}

// ScorePoses stores the score ScorePose gives poses[i] into out[i] and,
// when covered is non-nil, its coverage into covered[i]. It scores the
// poses two at a time in lockstep, so the two energy sums overlap; each
// keeps its own order of additions, so every score has ScorePose's bits.
// It panics unless out, and covered when non-nil, have len(poses) entries.
func (nl *NeighborList) ScorePoses(poses [][]vec.V3, out []float64, covered []bool, s *NeighborScratch) {
	checkBatch(poses, out)
	if covered != nil && len(covered) != len(poses) {
		panic(fmt.Sprintf("forcefield: batch has %d poses but %d coverage slots", len(poses), len(covered)))
	}
	for i := 0; i < len(poses); i += 2 {
		checkPose(poses[i], nl.lig)
		var b []vec.V3
		if i+1 < len(poses) {
			b = poses[i+1]
			checkPose(b, nl.lig)
		}
		ea, eb, ca, cb := nl.scorePair(poses[i], b, s)
		out[i] = ea
		if covered != nil {
			covered[i] = ca
		}
		if b != nil {
			out[i+1] = eb
			if covered != nil {
				covered[i+1] = cb
			}
		}
	}
}

// scorePair scores pose a and, when b is non-nil, pose b of the same
// length in lockstep: per ligand atom, the range pass of each pose, then
// one energy pass over both hit lists.
func (nl *NeighborList) scorePair(a, b []vec.V3, s *NeighborScratch) (ea, eb float64, ca, cb bool) {
	pa, pb := &s.pose[0], &s.pose[1]
	na, ca := nl.gather(a, pa)
	nb := 0
	if b != nil {
		nb, cb = nl.gather(b, pb)
	}
	for j, lp := range a {
		// Range test first, energies after: the energy pass runs over
		// the candidates in range alone.
		ma := rangePass(pa, na, lp)
		mb := 0
		if b != nil {
			mb = rangePass(pb, nb, b[j])
		}
		ea, eb = energyPass(&nl.rows[nl.lig.Type[j]], pa, pb, ma, mb, ea, eb)
	}
	return ea, eb, ca, cb
}

// ljRow is one ligand type's row of the pair table: lane t of a and b
// holds A and B of the pair with receptor type t. NewPairTable's mixing
// commutes, so entry (lt, t) has the bits of entry (t, lt). The lanes are
// padded to 8, so a vector kernel holds each in one register and looks a
// hit's column up by permute.
type ljRow struct{ a, b [8]float64 }

// pairLJ returns the Lennard-Jones energy of a pair at squared distance r2,
// clamped at minDist2.
func pairLJ(r2, a, b float64) float64 {
	if r2 < minDist2 {
		r2 = minDist2
	}
	inv2 := 1 / r2
	inv6 := inv2 * inv2 * inv2
	return inv6 * (a*inv6 - b)
}

// rangePass stores the hits of ligand atom p among the first n candidates
// of s into s's hit arrays, in ascending candidate order, and returns their
// count: per hit its squared distance r2 and its pair-table column. A hit
// is !(r2 > cutoff²): the full scan's skip test negated, so a NaN r2
// counts. It is rangePassGo or a vector kernel of kernel_amd64.s, which
// stores the same bits; init picks once.
var rangePass = rangePassGo

// rangePassGo is the portable rangePass.
func rangePassGo(s *poseScratch, n int, p vec.V3) int {
	return rangeFrom(s, n, p, 0, 0)
}

// rangeFrom runs the portable range pass over candidates k0 to n-1,
// storing from hit slot m, and returns the new count.
func rangeFrom(s *poseScratch, n int, p vec.V3, k0, m int) int {
	const cutoff2 = Cutoff * Cutoff
	cx, cy, cz, typ := s.x[:n], s.y[:n], s.z[:n], s.typ[:n]
	r2s, cols := s.r2[:n], s.col[:n]
	for k := k0; k < n; k++ {
		dx := cx[k] - p.X
		dy := cy[k] - p.Y
		dz := cz[k] - p.Z
		r2 := dx*dx + dy*dy + dz*dz
		// Store every candidate at slot m, advance m only for a hit: this
		// compiles to a conditional move, so the three-in-four candidates
		// that miss cost no branch misprediction.
		r2s[m], cols[m] = r2, typ[k]
		if !(r2 > cutoff2) {
			m++
		}
	}
	return m
}

// energyPass adds the Lennard-Jones terms of ma hits of pose a's hit
// arrays to ea and of mb hits of pose b's to eb, each in hit order, with
// row the ligand atom's row of the pair table. It is energyPassGo or the
// AVX-512 kernel of kernel_amd64.s, which returns the same bits; init
// picks once.
var energyPass = energyPassGo

// energyPassGo is the portable energyPass: one pose after the other.
func energyPassGo(row *ljRow, a, b *poseScratch, ma, mb int, ea, eb float64) (float64, float64) {
	return energyGo(row, a, ma, ea), energyGo(row, b, mb, eb)
}

// energyGo adds the terms of m hits of s to e. A column is below numTypes;
// masking it with 7 only lets the compiler drop the row's bounds checks.
func energyGo(row *ljRow, s *poseScratch, m int, e float64) float64 {
	r2s, cols := s.r2[:m], s.col[:m]
	for i, r2 := range r2s {
		c := cols[i] & 7
		e += pairLJ(r2, row.a[c], row.b[c])
	}
	return e
}

// gather copies the list atoms within the cutoff of the pose's bounding box
// into s, in list order, and returns their count. The same pass over the
// pose answers Covers.
func (nl *NeighborList) gather(ligPos []vec.V3, s *poseScratch) (n int, covered bool) {
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
	// Types follow by index, so the kernels move only the float64
	// coordinates and the int32 indices.
	typ := s.typ[:n]
	for i, k := range s.idx[:n] {
		typ[i] = int32(nl.typ[k])
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
func gatherSpanGo(x, y, z []float64, k0, k1 int, c, h [3]float64, s *poseScratch, n int) int {
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
