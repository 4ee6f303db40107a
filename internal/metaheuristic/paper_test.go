package metaheuristic

import (
	"math"
	"testing"
)

func TestPaperConfigsMatchTable4(t *testing.T) {
	// Table 4 of the paper.
	cases := []struct {
		name       string
		pop        int
		selectFrac float64
		improve    float64
	}{
		{"M1", 64, 1.0, 0},
		{"M2", 64, 1.0, 1.0},
		{"M3", 64, 1.0, 0.20},
		{"M4", 1024, 1.0, 1.0},
	}
	for _, c := range cases {
		alg, err := NewPaper(c.name, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := alg.Params()
		if p.PopulationPerSpot != c.pop {
			t.Errorf("%s population = %d, want %d", c.name, p.PopulationPerSpot, c.pop)
		}
		if p.SelectFraction != c.selectFrac {
			t.Errorf("%s select fraction = %g, want %g", c.name, p.SelectFraction, c.selectFrac)
		}
		if p.ImproveFraction != c.improve {
			t.Errorf("%s improve fraction = %g, want %g", c.name, p.ImproveFraction, c.improve)
		}
	}
}

func TestPaperWorkloadRatios(t *testing.T) {
	// The derived budgets must reproduce the invariant evaluation-count
	// ratios of the paper's tables: M1:M2:M3:M4 ~ 2 : 3.2 : 1 : 99.
	evals := func(name string) float64 {
		alg, err := NewPaper(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := alg.Params()
		perGen := float64(p.PopulationPerSpot) *
			(1 + p.ImproveFraction*float64(p.ImproveMoves))
		return float64(p.Generations) * perGen
	}
	m1, m2, m3, m4 := evals("M1"), evals("M2"), evals("M3"), evals("M4")
	check := func(name string, got, want, tol float64) {
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s ratio = %.2f, want ~%.2f", name, got, want)
		}
	}
	check("M1/M3", m1/m3, 2.0, 0.10)
	check("M2/M3", m2/m3, 3.2, 0.10)
	check("M4/M3", m4/m3, 99.0, 0.10)
}

func TestM4IsSingleStep(t *testing.T) {
	alg, err := NewPaper("M4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Params().Generations != 1 {
		t.Errorf("M4 generations = %d, want 1", alg.Params().Generations)
	}
}

func TestNewPaperRejectsBadInput(t *testing.T) {
	if _, err := NewPaper("M9", 1); err == nil {
		t.Error("unknown metaheuristic accepted")
	}
	if _, err := NewPaper("M1", 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewPaper("M1", 1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := NewPaper("M3", math.NaN()); err == nil {
		t.Error("NaN scale accepted")
	}
}

func TestScaledConfigsAreSmaller(t *testing.T) {
	full, err := NewPaper("M2", 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewPaper("M2", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Params().PopulationPerSpot >= full.Params().PopulationPerSpot {
		t.Error("scaled population not smaller")
	}
	if small.Params().Generations >= full.Params().Generations {
		t.Error("scaled generations not smaller")
	}
	if small.Params().PopulationPerSpot < 1 || small.Params().Generations < 1 {
		t.Error("scaled budgets below 1")
	}
}

func TestPaperNames(t *testing.T) {
	names := PaperNames()
	if len(names) != 4 || names[0] != "M1" || names[3] != "M4" {
		t.Errorf("PaperNames = %v", names)
	}
	for _, n := range names {
		if _, err := NewPaper(n, 1); err != nil {
			t.Errorf("NewPaper(%s): %v", n, err)
		}
	}
}
