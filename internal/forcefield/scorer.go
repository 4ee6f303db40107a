package forcefield

import (
	"fmt"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/vec"
)

// Cutoff is the interaction cutoff in angstroms. Pairs farther apart
// contribute nothing; this is the standard treatment for short-range LJ
// interactions and is what makes the cell-list scorer possible.
const Cutoff = 12.0

// minDist2 clamps the squared pair distance so that overlapping atoms yield
// a large-but-finite clash penalty instead of an infinity that would poison
// metaheuristic comparisons.
const minDist2 = 0.25 // (0.5 A)^2

// Options selects nothing: the Lennard-Jones term is the only score. The
// empty struct stays because the problem and screen constructors take it,
// and their callers, the benchmark harness among them, pass Options{}.
type Options struct{}

// Topology is a molecule flattened to the arrays the scoring kernels
// consume: positions and force-field type indices.
type Topology struct {
	Pos  []vec.V3
	Type []uint8
}

// NewTopology extracts the scoring topology of a molecule.
func NewTopology(m *molecule.Molecule) *Topology {
	t := &Topology{
		Pos:  make([]vec.V3, m.NumAtoms()),
		Type: make([]uint8, m.NumAtoms()),
	}
	for i, a := range m.Atoms {
		t.Pos[i] = a.Pos
		t.Type[i] = uint8(a.Element)
	}
	return t
}

// Len returns the number of atoms.
func (t *Topology) Len() int { return len(t.Pos) }

// Scorer evaluates the interaction energy (kcal/mol) between the fixed
// receptor it was built for and a posed ligand. Lower is better. ligPos must
// be parallel to the ligand topology passed at construction; implementations
// must be safe for concurrent Score calls.
type Scorer interface {
	// Score returns the receptor-ligand interaction energy for ligand
	// atoms at ligPos.
	Score(ligPos []vec.V3) float64
	// Name identifies the implementation for reports and benchmarks.
	Name() string
}

// checkBatch validates a batched call's buffer lengths.
func checkBatch(poses [][]vec.V3, out []float64) {
	if len(poses) != len(out) {
		panic(fmt.Sprintf("forcefield: batch has %d poses but %d outputs", len(poses), len(out)))
	}
}

// checkPose validates that a pose has one position per ligand atom.
func checkPose(ligPos []vec.V3, lig *Topology) {
	if len(ligPos) != lig.Len() {
		panic(fmt.Sprintf("forcefield: ligand pose has %d atoms, topology has %d", len(ligPos), lig.Len()))
	}
}

// Direct is the reference scorer: the full O(R*L) double loop over atom
// pairs. It defines the semantics the other scorers must reproduce.
type Direct struct {
	rec   *Topology
	lig   *Topology
	table *PairTable
}

// NewDirect returns the reference scorer for the given receptor and ligand
// topologies.
func NewDirect(rec, lig *Topology) *Direct {
	return &Direct{rec: rec, lig: lig, table: NewPairTable()}
}

// Name implements Scorer.
func (d *Direct) Name() string { return "direct" }

// Score implements Scorer.
func (d *Direct) Score(ligPos []vec.V3) float64 {
	checkPose(ligPos, d.lig)
	const cutoff2 = Cutoff * Cutoff
	e := 0.0
	for i, rp := range d.rec.Pos {
		rt := d.rec.Type[i]
		for j, lp := range ligPos {
			r2 := rp.Dist2(lp)
			if r2 > cutoff2 {
				continue
			}
			if r2 < minDist2 {
				r2 = minDist2
			}
			p := d.table.At(rt, d.lig.Type[j])
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			e += inv6 * (p.A*inv6 - p.B)
		}
	}
	return e
}
