package forcefield

import (
	"fmt"

	"github.com/metascreen/metascreen/internal/vec"
)

// Grid is a precomputed-potential scorer in the BINDSURF style: the
// receptor's Lennard-Jones field is tabulated once per ligand atom type on
// a uniform lattice, and scoring a pose reduces to trilinear interpolation
// per ligand atom — O(L) instead of O(R*L). This trades memory and a small
// interpolation error for a large constant-factor win, the classic
// docking-grid approach (Autodock, BINDSURF).
//
// Grids are built over the receptor's padded bounding box; ligand atoms
// outside the box contribute zero (they are beyond the cutoff of every
// receptor atom by construction of the padding).
type Grid struct {
	lig        *Topology
	origin     vec.V3
	spacing    float64
	nx, ny, nz int

	// values[t] is the tabulated potential for ligand type t, laid out
	// x-major: values[t][(ix*ny+iy)*nz+iz].
	values [][]float32
	// charge is the tabulated electrostatic potential (per unit charge),
	// present only when opts.Coulomb is set.
	charge []float32
}

// GridSpacing is the default lattice spacing in angstroms.
const GridSpacing = 0.75

// NewGrid tabulates the receptor field. spacing <= 0 selects GridSpacing.
// Building is O(R * lattice) and is intended to be done once per receptor.
func NewGrid(rec, lig *Topology, opts Options, spacing float64) (*Grid, error) {
	if spacing <= 0 {
		spacing = GridSpacing
	}
	if len(rec.Pos) == 0 {
		return nil, fmt.Errorf("forcefield: grid over empty receptor")
	}
	g := &Grid{lig: lig, spacing: spacing}
	box := vec.BoundPoints(rec.Pos).Pad(Cutoff + spacing)
	g.origin = box.Lo
	size := box.Size()
	g.nx = int(size.X/spacing) + 2
	g.ny = int(size.Y/spacing) + 2
	g.nz = int(size.Z/spacing) + 2
	n := g.nx * g.ny * g.nz

	// Which ligand types actually occur; only those grids are built.
	present := map[uint8]bool{}
	for _, t := range lig.Type {
		present[t] = true
	}
	g.values = make([][]float32, numTypes)
	for t := range g.values {
		if present[uint8(t)] {
			g.values[t] = make([]float32, n)
		}
	}
	if opts.Coulomb {
		g.charge = make([]float32, n)
	}

	// Tabulate with a receptor-side cell list so each lattice point only
	// visits nearby atoms.
	cl := NewCellList(rec, lig, opts)
	table := NewPairTable()
	const cutoff2 = Cutoff * Cutoff
	for ix := 0; ix < g.nx; ix++ {
		for iy := 0; iy < g.ny; iy++ {
			for iz := 0; iz < g.nz; iz++ {
				p := vec.V3{
					X: g.origin.X + float64(ix)*spacing,
					Y: g.origin.Y + float64(iy)*spacing,
					Z: g.origin.Z + float64(iz)*spacing,
				}
				idx := (ix*g.ny+iy)*g.nz + iz
				// Accumulate per-type LJ and unit-charge Coulomb.
				cl.visitNear(p, func(ai int32) {
					r2 := rec.Pos[ai].Dist2(p)
					if r2 > cutoff2 {
						return
					}
					if r2 < minDist2 {
						r2 = minDist2
					}
					inv2 := 1 / r2
					inv6 := inv2 * inv2 * inv2
					rt := rec.Type[ai]
					for t := range g.values {
						if g.values[t] == nil {
							continue
						}
						pp := table.At(rt, uint8(t))
						g.values[t][idx] += float32(inv6 * (pp.A*inv6 - pp.B))
					}
					if g.charge != nil {
						g.charge[idx] += float32(coulombK * rec.Charge[ai] * inv2 / 4)
					}
				})
			}
		}
	}
	return g, nil
}

// visitNear calls fn with the index of every receptor atom in the 27 cells
// around p.
func (c *CellList) visitNear(p vec.V3, fn func(i int32)) {
	fx := (p.X - c.origin.X) / c.cellSize
	fy := (p.Y - c.origin.Y) / c.cellSize
	fz := (p.Z - c.origin.Z) / c.cellSize
	ix0, ix1 := neighborRange(fx, c.nx)
	iy0, iy1 := neighborRange(fy, c.ny)
	iz0, iz1 := neighborRange(fz, c.nz)
	for ix := ix0; ix <= ix1; ix++ {
		for iy := iy0; iy <= iy1; iy++ {
			for iz := iz0; iz <= iz1; iz++ {
				cell := (ix*c.ny+iy)*c.nz + iz
				for k := c.cellStart[cell]; k < c.cellStart[cell+1]; k++ {
					fn(c.atomIdx[k])
				}
			}
		}
	}
}

// Name implements Scorer.
func (g *Grid) Name() string { return "grid" }

// Score implements Scorer by trilinear interpolation of the tabulated
// field at each ligand atom.
func (g *Grid) Score(ligPos []vec.V3) float64 {
	e := 0.0
	for j, p := range ligPos {
		t := g.lig.Type[j]
		vals := g.values[t]
		if vals == nil {
			continue
		}
		e += g.sample(vals, p)
		if g.charge != nil {
			e += g.sample(g.charge, p) * g.lig.Charge[j]
		}
	}
	return e
}

// ScoreBatch implements BatchScorer: grid scoring has no receptor pass to
// amortize (each pose is O(L) interpolations), so the batch form simply
// evaluates the poses back to back, bit-identical to looped Score.
func (g *Grid) ScoreBatch(poses [][]vec.V3, out []float64) {
	checkBatch(poses, out)
	for i, pose := range poses {
		out[i] = g.Score(pose)
	}
}

// sample trilinearly interpolates field at p; points outside the lattice
// return 0 (they are beyond the cutoff by construction).
func (g *Grid) sample(field []float32, p vec.V3) float64 {
	fx := (p.X - g.origin.X) / g.spacing
	fy := (p.Y - g.origin.Y) / g.spacing
	fz := (p.Z - g.origin.Z) / g.spacing
	ix, iy, iz := int(fx), int(fy), int(fz)
	if fx < 0 || fy < 0 || fz < 0 || ix >= g.nx-1 || iy >= g.ny-1 || iz >= g.nz-1 {
		return 0
	}
	tx, ty, tz := fx-float64(ix), fy-float64(iy), fz-float64(iz)
	at := func(dx, dy, dz int) float64 {
		return float64(field[((ix+dx)*g.ny+(iy+dy))*g.nz+(iz+dz)])
	}
	// Interpolate along z, then y, then x.
	c00 := at(0, 0, 0)*(1-tz) + at(0, 0, 1)*tz
	c01 := at(0, 1, 0)*(1-tz) + at(0, 1, 1)*tz
	c10 := at(1, 0, 0)*(1-tz) + at(1, 0, 1)*tz
	c11 := at(1, 1, 0)*(1-tz) + at(1, 1, 1)*tz
	c0 := c00*(1-ty) + c01*ty
	c1 := c10*(1-ty) + c11*ty
	return c0*(1-tx) + c1*tx
}

// MemoryBytes returns the grid's approximate memory footprint, the
// quantity that forces large-molecule runs onto multiGPU systems in the
// paper's motivation.
func (g *Grid) MemoryBytes() int64 {
	var total int64
	for _, v := range g.values {
		total += int64(len(v)) * 4
	}
	total += int64(len(g.charge)) * 4
	return total
}
