package core

import (
	"testing"

	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
)

func TestNewProblem(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 800, 41)
	lig := molecule.SyntheticLigand("lig", 15, 42)
	p, err := NewProblem(rec, lig, surface.Options{MaxSpots: 5}, forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Spots) != 5 {
		t.Errorf("spots = %d", len(p.Spots))
	}
	if p.PairsPerConformation() != 800*15 {
		t.Errorf("pairs = %d", p.PairsPerConformation())
	}
	// Ligand is centered.
	if p.Ligand.Centroid().Norm() > 1e-9 {
		t.Errorf("ligand centroid = %v", p.Ligand.Centroid())
	}
	if p.LigandRadius() <= 0 {
		t.Error("ligand radius not positive")
	}
	if len(p.LigandPositions()) != 15 {
		t.Error("ligand positions length wrong")
	}
}

func TestNewProblemRejectsInvalidMolecules(t *testing.T) {
	lig := molecule.SyntheticLigand("lig", 15, 42)
	if _, err := NewProblem(&molecule.Molecule{Name: "empty"}, lig, surface.Options{}, forcefield.Options{}); err == nil {
		t.Error("empty receptor accepted")
	}
	rec := molecule.SyntheticProtein("rec", 400, 41)
	if _, err := NewProblem(rec, &molecule.Molecule{Name: "empty"}, surface.Options{}, forcefield.Options{}); err == nil {
		t.Error("empty ligand accepted")
	}
}

func TestNewScorerKinds(t *testing.T) {
	p := smallProblem(t)
	for _, kind := range []string{"direct", "celllist"} {
		s, err := p.NewScorer(kind)
		if err != nil {
			t.Errorf("scorer %q: %v", kind, err)
		}
		if s == nil {
			t.Errorf("scorer %q is nil", kind)
		}
	}
	for _, kind := range []string{"", "tiled", "grid", "nope"} {
		if _, err := p.NewScorer(kind); err == nil {
			t.Errorf("scorer %q accepted", kind)
		}
	}
}

func TestDatasets(t *testing.T) {
	bsm := Dataset2BSM()
	if bsm.Receptor.NumAtoms() != 3264 || bsm.Ligand.NumAtoms() != 45 {
		t.Errorf("2BSM sizes: %d/%d", bsm.Receptor.NumAtoms(), bsm.Ligand.NumAtoms())
	}
	bxg := Dataset2BXG()
	if bxg.Receptor.NumAtoms() != 8609 || bxg.Ligand.NumAtoms() != 32 {
		t.Errorf("2BXG sizes: %d/%d", bxg.Receptor.NumAtoms(), bxg.Ligand.NumAtoms())
	}
	if _, err := DatasetByName("2BSM"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("1ABC"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestNewProblemFromDatasetSpotScaling(t *testing.T) {
	p, err := NewProblemFromDataset(Dataset2BSM(), forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Default spot detection: receptorAtoms/100 = 32 for 2BSM.
	if len(p.Spots) != 32 {
		t.Errorf("2BSM spots = %d, want 32", len(p.Spots))
	}
}
