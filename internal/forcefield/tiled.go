package forcefield

import "github.com/metascreen/metascreen/internal/vec"

// TileSize is the number of receptor atoms per tile in the tiled scorer.
// It matches the shared-memory tile the paper's CUDA kernel stages: one
// warp-sized chunk of receptor data reused against every ligand atom.
const TileSize = 32

// Tiled scores with the receptor pre-packed into structure-of-arrays tiles.
// Each tile's coordinates are contiguous, so the inner loop streams through
// cache lines exactly the way the CUDA kernel streams shared memory; this is
// the host analogue of the paper's "tilling implementation via shared
// memory" and the kernel whose cost the GPU simulator models. It backs
// NewGradientScorer: ScoreForces (gradient.go) returns the analytic forces
// the gradient improver descends along.
type Tiled struct {
	lig   *Topology
	table *PairTable
	opts  Options

	// Receptor in SoA tile order.
	x, y, z []float64
	typ     []uint8
	chg     []float64
	// rowBase[i] is typ[i]*numTypes, the precomputed pair-table row offset
	// of receptor atom i.
	rowBase []int32
	n       int
}

// NewTiled returns a tiled scorer for the given receptor and ligand.
func NewTiled(rec, lig *Topology, opts Options) *Tiled {
	n := rec.Len()
	t := &Tiled{
		lig: lig, table: NewPairTable(), opts: opts,
		x: make([]float64, n), y: make([]float64, n), z: make([]float64, n),
		typ: make([]uint8, n), chg: make([]float64, n),
		rowBase: make([]int32, n), n: n,
	}
	for i, p := range rec.Pos {
		t.x[i], t.y[i], t.z[i] = p.X, p.Y, p.Z
		t.typ[i] = rec.Type[i]
		t.chg[i] = rec.Charge[i]
		t.rowBase[i] = int32(rec.Type[i]) * int32(numTypes)
	}
	return t
}

// Name implements Scorer.
func (t *Tiled) Name() string { return "tiled" }

// tileEnergy accumulates the interaction of one pose with receptor atoms
// [base, end) onto e, in a fixed (ligand atom, receptor atom) order.
func (t *Tiled) tileEnergy(e float64, ligPos []vec.V3, base, end int) float64 {
	const cutoff2 = Cutoff * Cutoff
	for j, lp := range ligPos {
		lt := int32(t.lig.Type[j])
		lq := t.lig.Charge[j]
		for i := base; i < end; i++ {
			dx := t.x[i] - lp.X
			dy := t.y[i] - lp.Y
			dz := t.z[i] - lp.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 > cutoff2 {
				continue
			}
			if r2 < minDist2 {
				r2 = minDist2
			}
			p := t.table[t.rowBase[i]+lt]
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			e += inv6 * (p.A*inv6 - p.B)
			if t.opts.Coulomb {
				e += coulombK * t.chg[i] * lq * inv2 / 4
			}
		}
	}
	return e
}

// Score implements Scorer.
func (t *Tiled) Score(ligPos []vec.V3) float64 {
	e := 0.0
	for base := 0; base < t.n; base += TileSize {
		end := base + TileSize
		if end > t.n {
			end = t.n
		}
		e = t.tileEnergy(e, ligPos, base, end)
	}
	return e
}

// PairOps returns the number of atom-pair interactions one Score call
// evaluates (before cutoff filtering). This is the work unit the GPU
// simulator's cost model charges for.
func (t *Tiled) PairOps() int { return t.n * t.lig.Len() }
