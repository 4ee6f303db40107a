package forcefield

import (
	"math"

	"github.com/metascreen/metascreen/internal/vec"
)

// CellList scores through a uniform spatial grid over the receptor: each
// ligand atom only visits receptor atoms in the 27 cells around it, so the
// cost is proportional to the atoms actually within the cutoff rather than
// to the whole receptor. It is the fast scorer for Real-mode screening runs.
//
// Receptor atoms are stored sorted by cell in structure-of-arrays form, so
// a cell's atoms are contiguous in memory and the inner loop streams them
// without the index indirection a CSR-of-indices layout would need.
type CellList struct {
	lig   *Topology
	table *PairTable

	origin     vec.V3
	cellSize   float64
	nx, ny, nz int

	// cellStart[c]..cellStart[c+1] indexes the cell-sorted SoA arrays.
	cellStart []int32
	// Receptor atom data in cell-sorted order (ascending original index
	// within each cell, so traversal order matches the old CSR layout).
	px, py, pz []float64
	typ        []uint8
	// atomIdx maps a cell-sorted slot back to the original receptor atom
	// index (NewNeighborList keeps lists in original order).
	atomIdx []int32
}

// NewCellList builds the neighbour grid with cell edge equal to the cutoff.
func NewCellList(rec, lig *Topology) *CellList {
	c := &CellList{lig: lig, table: NewPairTable(), cellSize: Cutoff}
	b := vec.BoundPoints(rec.Pos)
	if b.Empty() {
		b = vec.NewAABB(vec.Zero, vec.Zero)
	}
	c.origin = b.Lo
	size := b.Size()
	c.nx = int(size.X/c.cellSize) + 1
	c.ny = int(size.Y/c.cellSize) + 1
	c.nz = int(size.Z/c.cellSize) + 1

	nCells := c.nx * c.ny * c.nz
	counts := make([]int32, nCells+1)
	cellOf := make([]int32, len(rec.Pos))
	for i, p := range rec.Pos {
		cell := c.cellIndex(p)
		cellOf[i] = cell
		counts[cell+1]++
	}
	for i := 1; i <= nCells; i++ {
		counts[i] += counts[i-1]
	}
	c.cellStart = counts
	n := len(rec.Pos)
	c.px = make([]float64, n)
	c.py = make([]float64, n)
	c.pz = make([]float64, n)
	c.typ = make([]uint8, n)
	c.atomIdx = make([]int32, n)
	cursor := make([]int32, nCells)
	for i, p := range rec.Pos {
		cell := cellOf[i]
		k := c.cellStart[cell] + cursor[cell]
		cursor[cell]++
		c.px[k], c.py[k], c.pz[k] = p.X, p.Y, p.Z
		c.typ[k] = rec.Type[i]
		c.atomIdx[k] = int32(i)
	}
	return c
}

// ForLigand returns a scorer for another ligand over the same receptor: the
// binned receptor arrays are immutable and shared, so a screen bins its
// receptor once and every ligand's scorer is a header copy.
func (c *CellList) ForLigand(lig *Topology) *CellList {
	d := *c
	d.lig = lig
	return &d
}

// cellIndex maps a position to its (clamped) flat cell index.
func (c *CellList) cellIndex(p vec.V3) int32 {
	ix := clamp(int((p.X-c.origin.X)/c.cellSize), 0, c.nx-1)
	iy := clamp(int((p.Y-c.origin.Y)/c.cellSize), 0, c.ny-1)
	iz := clamp(int((p.Z-c.origin.Z)/c.cellSize), 0, c.nz-1)
	return int32((ix*c.ny+iy)*c.nz + iz)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Name implements Scorer.
func (c *CellList) Name() string { return "celllist" }

// Score implements Scorer.
func (c *CellList) Score(ligPos []vec.V3) float64 {
	checkPose(ligPos, c.lig)
	const cutoff2 = Cutoff * Cutoff
	e := 0.0
	for j, lp := range ligPos {
		lt := int32(c.lig.Type[j])
		// Cell coordinates of the ligand atom, unclamped so that atoms
		// outside the receptor box still scan the correct border cells.
		fx := (lp.X - c.origin.X) / c.cellSize
		fy := (lp.Y - c.origin.Y) / c.cellSize
		fz := (lp.Z - c.origin.Z) / c.cellSize
		ix0, ix1 := neighborRange(fx, c.nx)
		iy0, iy1 := neighborRange(fy, c.ny)
		iz0, iz1 := neighborRange(fz, c.nz)
		if ix0 > ix1 || iy0 > iy1 || iz0 > iz1 {
			continue // beyond the cutoff of every cell on some axis
		}
		for ix := ix0; ix <= ix1; ix++ {
			for iy := iy0; iy <= iy1; iy++ {
				// The z-neighbour cells are contiguous in the cell-sorted
				// arrays, so the three cells collapse into one linear scan.
				row := (ix*c.ny + iy) * c.nz
				lo := c.cellStart[row+iz0]
				hi := c.cellStart[row+iz1+1]
				for k := lo; k < hi; k++ {
					dx := c.px[k] - lp.X
					dy := c.py[k] - lp.Y
					dz := c.pz[k] - lp.Z
					r2 := dx*dx + dy*dy + dz*dz
					if r2 > cutoff2 {
						continue
					}
					if r2 < minDist2 {
						r2 = minDist2
					}
					p := c.table[int32(c.typ[k])*int32(numTypes)+lt]
					inv2 := 1 / r2
					inv6 := inv2 * inv2 * inv2
					e += inv6 * (p.A*inv6 - p.B)
				}
			}
		}
	}
	return e
}

// neighborRange returns the clamped [lo, hi] cell range around fractional
// cell coordinate f on an axis with n cells. An empty range (lo > hi) means
// the atom is beyond the cutoff of every cell on that axis.
func neighborRange(f float64, n int) (lo, hi int) {
	i := int(math.Floor(f))
	lo, hi = i-1, i+1
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}
