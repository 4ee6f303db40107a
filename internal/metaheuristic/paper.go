package metaheuristic

import "fmt"

// This file defines the four metaheuristic configurations of the paper's
// Table 4 at two scales:
//
//   - Paper scale: the population sizes of Table 4 plus the generation and
//     local-search budgets DESIGN.md derives from the invariant time ratios
//     across the paper's result tables (M1:M2:M3:M4 ~ 2:3.2:1:99). Used by
//     the Modeled-mode table harness.
//   - A caller-chosen Scale in (0, 1] shrinks population and budgets for
//     Real-mode tests, examples and benchmarks.

// Paper-scale template budgets (see DESIGN.md, "Workload calibration").
const (
	paperPopM13       = 64   // M1-M3 population per spot (Table 4)
	paperPopM4        = 1024 // M4 population per spot (Table 4)
	paperGenM1        = 660  // GA runs ~4.4x more generations than M2/M3
	paperGenM23       = 150
	paperImproveMoves = 6    // local-search moves per improved element (M2/M3)
	paperM4Moves      = 2046 // M4's intensive local search
)

// scalei scales an integer budget, minimum 1.
func scalei(v int, scale float64) int {
	s := int(float64(v)*scale + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// M1Params returns the paper's M1 row of Table 4 scaled by scale (1 = paper
// scale): a 64-individual genetic algorithm with no local search.
func M1Params(scale float64) Params {
	return Params{
		PopulationPerSpot: scalei(paperPopM13, scale),
		SelectFraction:    1.0,
		ImproveFraction:   0,
		ImproveMoves:      0,
		Generations:       scalei(paperGenM1, scale),
	}
}

// M2Params returns the paper's M2: scatter search with local search on all
// offspring.
func M2Params(scale float64) Params {
	return Params{
		PopulationPerSpot: scalei(paperPopM13, scale),
		SelectFraction:    1.0,
		ImproveFraction:   1.0,
		ImproveMoves:      paperImproveMoves,
		Generations:       scalei(paperGenM23, scale),
	}
}

// M3Params returns the paper's M3: as M2 with local search on 20% of
// offspring.
func M3Params(scale float64) Params {
	p := M2Params(scale)
	p.ImproveFraction = 0.20
	return p
}

// M4Params returns the paper's M4: one step of intensive local search over
// a 1024-individual set.
func M4Params(scale float64) Params {
	return Params{
		PopulationPerSpot: scalei(paperPopM4, scale),
		SelectFraction:    1.0,
		ImproveFraction:   1.0,
		ImproveMoves:      scalei(paperM4Moves, scale),
		Generations:       1,
	}
}

// NewPaper constructs one of the paper's four metaheuristics ("M1".."M4")
// at the given scale (1 = paper scale).
func NewPaper(name string, scale float64) (Algorithm, error) {
	if !(scale > 0 && scale <= 1) {
		return nil, fmt.Errorf("metaheuristic: scale %g outside (0, 1]", scale)
	}
	switch name {
	case "M1":
		return NewGenetic("M1", M1Params(scale))
	case "M2":
		return NewScatterSearch("M2", M2Params(scale))
	case "M3":
		return NewScatterSearch("M3", M3Params(scale))
	case "M4":
		return NewLocalSearch("M4", M4Params(scale))
	}
	return nil, fmt.Errorf("metaheuristic: unknown paper metaheuristic %q (want M1..M4)", name)
}

// PaperNames lists the paper's metaheuristics in table order.
func PaperNames() []string { return []string{"M1", "M2", "M3", "M4"} }
