package molecule

import (
	"math"
	"testing"
)

func TestSyntheticSizesMatchPaperTable5(t *testing.T) {
	cases := []struct {
		m    *Molecule
		want int
	}{
		{Synthetic2BSMReceptor(), 3264},
		{Synthetic2BSMLigand(), 45},
		{Synthetic2BXGReceptor(), 8609},
		{Synthetic2BXGLigand(), 32},
	}
	for _, c := range cases {
		if c.m.NumAtoms() != c.want {
			t.Errorf("%s: %d atoms, want %d", c.m.Name, c.m.NumAtoms(), c.want)
		}
		if err := c.m.Validate(); err != nil {
			t.Errorf("%s: %v", c.m.Name, err)
		}
	}
}

func TestSyntheticProteinDeterministic(t *testing.T) {
	a := SyntheticProtein("a", 500, 42)
	b := SyntheticProtein("b", 500, 42)
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos || a.Atoms[i].Element != b.Atoms[i].Element {
			t.Fatalf("atom %d differs between same-seed generations", i)
		}
	}
	c := SyntheticProtein("c", 500, 43)
	if a.Atoms[10].Pos == c.Atoms[10].Pos {
		t.Error("different seeds produced identical geometry")
	}
}

func TestSyntheticProteinIsGlobular(t *testing.T) {
	m := Synthetic2BSMReceptor()
	r := m.Radius()
	// Ideal globular radius for 3264 atoms at ~0.0095 atoms/A^3 is ~43 A.
	// The walk overshoots somewhat; require the fold to stay compact.
	if r < 20 || r > 90 {
		t.Errorf("fold radius = %v A, not protein-like", r)
	}
	// Density within the bounding sphere should be protein-like, not a
	// diffuse random gas.
	density := float64(m.NumAtoms()) / (4.0 / 3.0 * math.Pi * r * r * r)
	if density < 0.002 {
		t.Errorf("density = %v atoms/A^3, too diffuse", density)
	}
}

func TestSyntheticProteinHasBackbone(t *testing.T) {
	m := SyntheticProtein("p", 800, 7)
	cas := m.AlphaCarbons()
	// ~1 CA per ~8 atoms.
	if len(cas) < 50 || len(cas) > 200 {
		t.Errorf("%d alpha carbons for 800 atoms", len(cas))
	}
	// Consecutive CA-CA distance must be the canonical 3.8 A.
	for i := 1; i < len(cas); i++ {
		d := m.Atoms[cas[i]].Pos.Dist(m.Atoms[cas[i-1]].Pos)
		if math.Abs(d-3.8) > 1e-6 {
			t.Fatalf("CA-CA distance %v, want 3.8", d)
		}
	}
}

func TestSyntheticProteinElementMix(t *testing.T) {
	m := Synthetic2BXGReceptor()
	c := m.CountElement(Carbon)
	n := m.CountElement(Nitrogen)
	o := m.CountElement(Oxygen)
	if c <= n || c <= o {
		t.Errorf("carbon (%d) should dominate N (%d) and O (%d)", c, n, o)
	}
	if n == 0 || o == 0 {
		t.Error("protein missing N or O atoms")
	}
}

func TestSyntheticLigandCenteredAndCompact(t *testing.T) {
	m := Synthetic2BSMLigand()
	if m.Centroid().Norm() > 1e-9 {
		t.Errorf("ligand centroid = %v, want origin", m.Centroid())
	}
	if r := m.Radius(); r > 20 {
		t.Errorf("ligand radius = %v A, not drug-like", r)
	}
}

func TestSyntheticLigandConnected(t *testing.T) {
	// Every atom must be within covalent distance (1.5 A steps) of another.
	m := SyntheticLigand("l", 40, 9)
	for i, a := range m.Atoms {
		nearest := math.Inf(1)
		for j, b := range m.Atoms {
			if i == j {
				continue
			}
			if d := a.Pos.Dist(b.Pos); d < nearest {
				nearest = d
			}
		}
		if nearest > 1.6 {
			t.Fatalf("atom %d nearest neighbour %v A: disconnected", i, nearest)
		}
	}
}

func TestSyntheticPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero atoms")
		}
	}()
	SyntheticProtein("bad", 0, 1)
}

func TestSyntheticLigandPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative atoms")
		}
	}()
	SyntheticLigand("bad", -1, 1)
}

// largestComponent returns the atom count of the largest set of atoms
// joined by chains of pairs closer than bond angstroms.
func largestComponent(m *Molecule, bond float64) int {
	n := m.NumAtoms()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := range m.Atoms {
		for j := i + 1; j < n; j++ {
			if m.Atoms[i].Pos.Dist(m.Atoms[j].Pos) < bond {
				parent[find(i)] = find(j)
			}
		}
	}
	size := make([]int, n)
	largest := 0
	for i := range parent {
		root := find(i)
		size[root]++
		largest = max(largest, size[root])
	}
	return largest
}

// ccBond is a carbon-carbon single bond (2 x 0.76 A covalent radius) plus
// the usual 0.45 A tolerance of geometric bond perception.
const ccBond = 1.97

func TestSyntheticLigandsAreConnected(t *testing.T) {
	for _, m := range []*Molecule{
		Synthetic2BSMLigand(),
		Synthetic2BXGLigand(),
		SyntheticLigand("x", 50, 77),
	} {
		if got := largestComponent(m, ccBond); got != m.NumAtoms() {
			t.Errorf("%s: largest bonded component has %d of %d atoms", m.Name, got, m.NumAtoms())
		}
	}
}

func TestSyntheticProteinBackboneBonded(t *testing.T) {
	// Protein backbones must form one dominant component containing the
	// vast majority of atoms (side chains attach to it).
	m := SyntheticProtein("p", 600, 55)
	if largest := largestComponent(m, ccBond); largest < m.NumAtoms()*5/10 {
		t.Errorf("largest component has %d of %d atoms", largest, m.NumAtoms())
	}
}
