package forcefield

import (
	"fmt"
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// pairMolecule builds a one-atom molecule of element e at p.
func pairMolecule(e molecule.Element, p vec.V3) *Topology {
	return NewTopology(molecule.New("one", []molecule.Atom{
		{Element: e, Pos: p},
	}))
}

// ljPair computes the analytic LJ energy for two atoms of elements a, b at
// distance r.
func ljPair(a, b molecule.Element, r float64) float64 {
	t := NewPairTable()
	p := t.At(uint8(a), uint8(b))
	inv6 := 1 / (r * r * r * r * r * r)
	return inv6 * (p.A*inv6 - p.B)
}

func TestDirectMatchesAnalyticPair(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero)
	lig := pairMolecule(molecule.Oxygen, vec.Zero)
	s := NewDirect(rec, lig)
	for _, r := range []float64{2.5, 3.0, 3.5, 4.0, 6.0, 10.0} {
		got := s.Score([]vec.V3{vec.New(r, 0, 0)})
		want := ljPair(molecule.Carbon, molecule.Oxygen, r)
		if math.Abs(got-want) > 1e-12*math.Abs(want)+1e-15 {
			t.Errorf("r=%v: got %v, want %v", r, got, want)
		}
	}
}

func TestLJMinimumAtTwoSixthSigma(t *testing.T) {
	// The LJ minimum for a pair is at r* = 2^(1/6) * sigma_mixed.
	sigma := (3.40 + 3.40) / 2
	rstar := math.Pow(2, 1.0/6) * sigma
	at := func(r float64) float64 { return ljPair(molecule.Carbon, molecule.Carbon, r) }
	if !(at(rstar) < at(rstar*0.97) && at(rstar) < at(rstar*1.03)) {
		t.Errorf("no minimum at r* = %v: %v %v %v", rstar, at(rstar*0.97), at(rstar), at(rstar*1.03))
	}
	// Well depth equals epsilon.
	if math.Abs(at(rstar)+0.0860) > 1e-9 {
		t.Errorf("well depth = %v, want -0.0860", at(rstar))
	}
}

func TestCutoff(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero)
	lig := pairMolecule(molecule.Carbon, vec.Zero)
	s := NewDirect(rec, lig)
	if got := s.Score([]vec.V3{vec.New(Cutoff+0.01, 0, 0)}); got != 0 {
		t.Errorf("beyond cutoff: %v, want 0", got)
	}
	if got := s.Score([]vec.V3{vec.New(Cutoff-0.01, 0, 0)}); got == 0 {
		t.Error("just inside cutoff contributed nothing")
	}
}

func TestClashClampFinite(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero)
	lig := pairMolecule(molecule.Carbon, vec.Zero)
	s := NewDirect(rec, lig)
	got := s.Score([]vec.V3{vec.Zero})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("overlapping atoms scored %v", got)
	}
	if got <= 0 {
		t.Errorf("clash energy = %v, want strongly positive", got)
	}
	// Clamped region is flat: any r below the clamp gives the same energy.
	alt := s.Score([]vec.V3{vec.New(0.3, 0, 0)})
	if got != alt {
		t.Errorf("clamp not flat: %v vs %v", got, alt)
	}
}

// TestScorePanicsOnWrongPoseLength pins the shared pose-length contract:
// a pose that is not parallel to the ligand topology is a programming
// error reported the same way by every exact scorer, never a partial score
// or an index-out-of-range.
func TestScorePanicsOnWrongPoseLength(t *testing.T) {
	rec := NewTopology(molecule.SyntheticProtein("rec", 100, 3))
	lig := NewTopology(molecule.SyntheticLigand("lig", 5, 4))
	cells := NewCellList(rec, lig)
	center := vec.Centroid(rec.Pos)
	half := vec.New(30, 30, 30)
	nl := NewNeighborList(cells, rec, vec.NewAABB(center.Sub(half), center.Add(half)))
	for _, s := range []Scorer{NewDirect(rec, lig), cells, nl} {
		for _, n := range []int{lig.Len() - 1, lig.Len() + 1} {
			pose := randomPose(rng.New(2), n, center, 5)
			want := fmt.Sprintf("forcefield: ligand pose has %d atoms, topology has %d", n, lig.Len())
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s with %d atoms: panic %v, want %q", s.Name(), n, got, want)
					}
				}()
				s.Score(pose)
			}()
		}
	}
}

func randomPose(r *rng.Source, n int, around vec.V3, spread float64) []vec.V3 {
	pose := make([]vec.V3, n)
	for i := range pose {
		pose[i] = around.Add(r.InSphere(spread))
	}
	return pose
}

func TestScorersAgreeLJ(t *testing.T) {
	rec := NewTopology(molecule.SyntheticProtein("rec", 700, 5))
	lig := NewTopology(molecule.SyntheticLigand("lig", 20, 6))
	direct := NewDirect(rec, lig)
	cells := NewCellList(rec, lig)

	r := rng.New(77)
	recCenter := vec.Centroid(rec.Pos)
	for trial := 0; trial < 40; trial++ {
		// Poses at the surface, inside, and far outside the receptor.
		center := recCenter.Add(r.InSphere(40))
		pose := randomPose(r, lig.Len(), center, 4)
		d := direct.Score(pose)
		ce := cells.Score(pose)
		tol := 1e-9 * (1 + math.Abs(d))
		if math.Abs(d-ce) > tol {
			t.Errorf("trial %d: celllist %v != direct %v", trial, ce, d)
		}
	}
}

func TestScoreTranslationInvariance(t *testing.T) {
	recMol := molecule.SyntheticProtein("rec", 300, 8)
	lig := NewTopology(molecule.SyntheticLigand("lig", 12, 9))
	shift := vec.New(13.5, -7, 2)
	s1 := NewDirect(NewTopology(recMol), lig)
	s2 := NewDirect(NewTopology(recMol.Translated(shift)), lig)

	r := rng.New(10)
	pose := randomPose(r, lig.Len(), recMol.Centroid(), 15)
	shifted := make([]vec.V3, len(pose))
	for i := range pose {
		shifted[i] = pose[i].Add(shift)
	}
	a, b := s1.Score(pose), s2.Score(shifted)
	if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
		t.Errorf("translation changed energy: %v vs %v", a, b)
	}
}

func TestCellListFarPoseIsZero(t *testing.T) {
	rec := NewTopology(molecule.SyntheticProtein("rec", 300, 11))
	lig := NewTopology(molecule.SyntheticLigand("lig", 10, 12))
	cells := NewCellList(rec, lig)
	far := vec.BoundPoints(rec.Pos).Hi.Add(vec.New(100, 100, 100))
	pose := randomPose(rng.New(13), lig.Len(), far, 2)
	if got := cells.Score(pose); got != 0 {
		t.Errorf("pose 100 A away scored %v", got)
	}
}

func TestScorerNames(t *testing.T) {
	rec := pairMolecule(molecule.Carbon, vec.Zero)
	lig := pairMolecule(molecule.Carbon, vec.Zero)
	for _, s := range []Scorer{
		NewDirect(rec, lig),
		NewCellList(rec, lig),
	} {
		if s.Name() == "" {
			t.Error("scorer with empty name")
		}
	}
}

func TestGoldenEnergies(t *testing.T) {
	// Regression net: exact energies of fixed configurations. A change to
	// parameters, mixing rules or kernel math shows up here first. Values
	// were computed by this implementation and cross-checked against the
	// analytic pair formula.
	rec := NewTopology(molecule.New("golden-rec", []molecule.Atom{
		{Element: molecule.Carbon, Pos: vec.New(0, 0, 0)},
		{Element: molecule.Oxygen, Pos: vec.New(3, 0, 0)},
		{Element: molecule.Nitrogen, Pos: vec.New(0, 3, 0)},
	}))
	lig := NewTopology(molecule.New("golden-lig", []molecule.Atom{
		{Element: molecule.Carbon, Pos: vec.New(0, 0, 0)},
		{Element: molecule.Sulfur, Pos: vec.New(1.8, 0, 0)},
	}))
	pose := []vec.V3{vec.New(1.5, 1.5, 3.0), vec.New(3.3, 1.5, 3.0)}

	// Golden value from the analytic per-pair sum.
	table := NewPairTable()
	want := 0.0
	for i, rp := range rec.Pos {
		for j, lp := range pose {
			r2 := rp.Dist2(lp)
			p := table.At(rec.Type[i], lig.Type[j])
			inv6 := 1 / (r2 * r2 * r2)
			want += inv6 * (p.A*inv6 - p.B)
		}
	}
	for _, s := range []Scorer{
		NewDirect(rec, lig),
		NewCellList(rec, lig),
	} {
		if got := s.Score(pose); math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: %v, want %v", s.Name(), got, want)
		}
	}
	// Freeze the absolute number too: any change to LJ parameters or
	// mixing rules must be deliberate.
	const frozen = -0.6462180350618174
	if math.Abs(want-frozen) > 1e-12 {
		t.Errorf("golden energy drifted: %v, frozen %v", want, frozen)
	}
}

func TestPairTableSymmetric(t *testing.T) {
	tab := NewPairTable()
	for i := 0; i < numTypes; i++ {
		for j := 0; j < numTypes; j++ {
			// Bit for bit: NeighborList.ScorePose reads the ligand type's
			// row where the full scan reads the receptor type's.
			a, b := tab.At(uint8(i), uint8(j)), tab.At(uint8(j), uint8(i))
			if math.Float64bits(a.A) != math.Float64bits(b.A) || math.Float64bits(a.B) != math.Float64bits(b.B) {
				t.Errorf("pair table asymmetric at (%d,%d)", i, j)
			}
			if a.A <= 0 || a.B <= 0 {
				t.Errorf("non-positive coefficients at (%d,%d): %+v", i, j, a)
			}
		}
	}
}
