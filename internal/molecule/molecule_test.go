package molecule

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/vec"
)

func small() *Molecule {
	return New("test", []Atom{
		{Name: "CA", Element: Carbon, Pos: vec.New(0, 0, 0)},
		{Name: "N", Element: Nitrogen, Pos: vec.New(2, 0, 0)},
		{Name: "O", Element: Oxygen, Pos: vec.New(0, 2, 0)},
		{Name: "CA", Element: Carbon, Pos: vec.New(0, 0, 2)},
	})
}

func TestNewRenumbersSerials(t *testing.T) {
	m := small()
	for i, a := range m.Atoms {
		if a.Serial != i+1 {
			t.Errorf("atom %d serial = %d", i, a.Serial)
		}
	}
}

func TestNumAtomsAndCounts(t *testing.T) {
	m := small()
	if m.NumAtoms() != 4 {
		t.Errorf("NumAtoms = %d", m.NumAtoms())
	}
	if got := m.CountElement(Carbon); got != 2 {
		t.Errorf("carbon count = %d", got)
	}
	if got := m.CountElement(Sulfur); got != 0 {
		t.Errorf("sulfur count = %d", got)
	}
}

func TestCentroid(t *testing.T) {
	m := small()
	want := vec.New(0.5, 0.5, 0.5)
	if got := m.Centroid(); !got.ApproxEq(want, 1e-12) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestBoundsAndRadius(t *testing.T) {
	m := small()
	b := m.Bounds()
	if b.Lo != vec.Zero || b.Hi != vec.New(2, 2, 2) {
		t.Errorf("bounds %v..%v", b.Lo, b.Hi)
	}
	r := m.Radius()
	want := vec.New(0.5, 0.5, 0.5).Dist(vec.New(2, 0, 0))
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("Radius = %v, want %v", r, want)
	}
}

func TestTranslatedAndCentered(t *testing.T) {
	m := small()
	moved := m.Translated(vec.New(10, 0, 0))
	if moved.Atoms[0].Pos != vec.New(10, 0, 0) {
		t.Errorf("translate: %v", moved.Atoms[0].Pos)
	}
	// Original untouched.
	if m.Atoms[0].Pos != vec.Zero {
		t.Error("Translated mutated the original")
	}
	c := moved.Centered()
	if got := c.Centroid(); got.Norm() > 1e-9 {
		t.Errorf("centered centroid = %v", got)
	}
}

func TestAlphaCarbons(t *testing.T) {
	m := small()
	idx := m.AlphaCarbons()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 3 {
		t.Errorf("AlphaCarbons = %v", idx)
	}
}

func TestValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Errorf("valid molecule rejected: %v", err)
	}
	empty := &Molecule{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty molecule accepted")
	}
	bad := small()
	bad.Atoms[1].Pos.X = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN coordinates accepted")
	}
	badSerial := small()
	badSerial.Atoms[2].Serial = 99
	if err := badSerial.Validate(); err == nil {
		t.Error("broken serials accepted")
	}
}

func TestElementProperties(t *testing.T) {
	if Carbon.String() != "C" || Oxygen.String() != "O" {
		t.Error("element symbols wrong")
	}
	if e, ok := ElementFromSymbol("N"); !ok || e != Nitrogen {
		t.Error("ElementFromSymbol(N)")
	}
	if _, ok := ElementFromSymbol("XX"); ok {
		t.Error("unknown symbol accepted")
	}
}

func TestPositionsIsCopy(t *testing.T) {
	m := small()
	pos := m.Positions()
	pos[0].X = 999
	if m.Atoms[0].Pos.X == 999 {
		t.Error("Positions aliases molecule storage")
	}
}

func TestString(t *testing.T) {
	if small().String() == "" {
		t.Error("empty String")
	}
}
