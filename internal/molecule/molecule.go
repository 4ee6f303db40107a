package molecule

import (
	"fmt"

	"github.com/metascreen/metascreen/internal/vec"
)

// Molecule is an ordered collection of atoms: a receptor protein or a small
// ligand. Molecules are immutable after construction in normal use; docking
// never mutates the molecule, it transforms copies of the ligand's
// coordinates (see internal/conformation).
type Molecule struct {
	// Name identifies the molecule, e.g. "2BSM-receptor".
	Name string
	// Atoms is the atom list; Serial fields are 1-based and dense.
	Atoms []Atom
}

// New returns a molecule with the given name and atoms, renumbering atom
// serials to be dense and 1-based.
func New(name string, atoms []Atom) *Molecule {
	m := &Molecule{Name: name, Atoms: atoms}
	for i := range m.Atoms {
		m.Atoms[i].Serial = i + 1
	}
	return m
}

// NumAtoms returns the number of atoms.
func (m *Molecule) NumAtoms() int { return len(m.Atoms) }

// Positions returns a fresh slice with a copy of every atom position, in
// atom order. Scoring kernels operate on position slices, not on molecules.
func (m *Molecule) Positions() []vec.V3 {
	pos := make([]vec.V3, len(m.Atoms))
	for i, a := range m.Atoms {
		pos[i] = a.Pos
	}
	return pos
}

// Centroid returns the unweighted centroid of the molecule.
func (m *Molecule) Centroid() vec.V3 {
	return vec.Centroid(m.Positions())
}

// Bounds returns the axis-aligned bounding box of the molecule.
func (m *Molecule) Bounds() vec.AABB {
	var b vec.AABB
	for _, a := range m.Atoms {
		b.Extend(a.Pos)
	}
	return b
}

// Radius returns the maximum distance of any atom from the centroid, the
// bounding-sphere radius about the centroid.
func (m *Molecule) Radius() float64 {
	c := m.Centroid()
	r := 0.0
	for _, a := range m.Atoms {
		if d := a.Pos.Dist(c); d > r {
			r = d
		}
	}
	return r
}

// Translated returns a copy of the molecule with every atom moved by d.
func (m *Molecule) Translated(d vec.V3) *Molecule {
	atoms := make([]Atom, len(m.Atoms))
	copy(atoms, m.Atoms)
	for i := range atoms {
		atoms[i].Pos = atoms[i].Pos.Add(d)
	}
	return &Molecule{Name: m.Name, Atoms: atoms}
}

// Centered returns a copy of the molecule translated so that its centroid is
// at the origin. Ligands are conventionally stored centered, so that a
// conformation's translation places the ligand center directly.
func (m *Molecule) Centered() *Molecule {
	return m.Translated(m.Centroid().Neg())
}

// CountElement returns the number of atoms of the given element.
func (m *Molecule) CountElement(e Element) int {
	n := 0
	for _, a := range m.Atoms {
		if a.Element == e {
			n++
		}
	}
	return n
}

// AlphaCarbons returns the indices of all alpha-carbon atoms.
func (m *Molecule) AlphaCarbons() []int {
	var idx []int
	for i, a := range m.Atoms {
		if a.IsAlphaCarbon() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks structural invariants: at least one atom, finite
// coordinates and dense 1-based serials.
func (m *Molecule) Validate() error {
	if len(m.Atoms) == 0 {
		return fmt.Errorf("molecule %q has no atoms", m.Name)
	}
	for i, a := range m.Atoms {
		if a.Serial != i+1 {
			return fmt.Errorf("molecule %q: atom %d has serial %d", m.Name, i, a.Serial)
		}
		if !a.Pos.IsFinite() {
			return fmt.Errorf("molecule %q: atom %d has non-finite position", m.Name, i)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (m *Molecule) String() string {
	return fmt.Sprintf("%s (%d atoms)", m.Name, len(m.Atoms))
}
