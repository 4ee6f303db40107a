// Package metaheuristic implements the paper's six-function metaheuristic
// template (its Algorithm 1: Initialize, End, Select, Combine, Improve,
// Include) and the four instantiations evaluated in its Tables 6-9:
//
//	M1 — a genetic algorithm, population 64 per spot, no local search;
//	M2 — a scatter-search-like method, local search on 100% of offspring;
//	M3 — as M2 but local search on only 20% of offspring;
//	M4 — a pure neighbourhood method: one step of intensive local search
//	     over a large (1024 per spot) initial set.
//
// The four are one Template whose constructor picks the Combine step
// (NewGenetic, NewScatterSearch, NewLocalSearch); Initialize, End, Select,
// Improve and Include are written once, in SpotState.
//
// The package deliberately separates the *algorithmic* state from
// *evaluation*: the template never scores conformations itself. Instead
// it exposes unscored candidates through the SpotState protocol and the
// driver (internal/core) batches evaluation and local search across
// all spots onto the compute backend — this batching is exactly what maps
// candidate solutions to CUDA warps in the paper's parallelization.
package metaheuristic

import (
	"fmt"
	"slices"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
)

// Population is an ordered set of candidate solutions for one spot.
type Population []conformation.Conformation

// Best returns the index of the best (lowest-score) evaluated individual,
// or -1 for an empty or fully unevaluated population.
func (p Population) Best() int {
	best := -1
	for i := range p {
		if !p[i].Evaluated() {
			continue
		}
		if best == -1 || p[i].Score < p[best].Score {
			best = i
		}
	}
	return best
}

// SortByScore orders the population best-first. Unevaluated individuals
// sort last. The sort is stable so equal scores keep their order, which
// keeps runs deterministic. It uses the generic stable sort rather than
// sort.SliceStable: no reflection-based swapping, which matters because
// population sorting is on the per-generation host path.
func (p Population) SortByScore() {
	slices.SortStableFunc(p, func(a, b conformation.Conformation) int {
		switch {
		case a.Score < b.Score:
			return -1
		case b.Score < a.Score:
			return 1
		}
		return 0
	})
}

// Clone returns a deep copy (conformations are values, so this is a plain
// slice copy).
func (p Population) Clone() Population {
	out := make(Population, len(p))
	copy(out, p)
	return out
}

// Unscored returns the indices of individuals that still need evaluation.
func (p Population) Unscored() []int {
	var idx []int
	for i, c := range p {
		if !c.Evaluated() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Params are the template parameters the paper's Table 4 tabulates per
// metaheuristic, plus the generation budget that closes the End condition.
type Params struct {
	// PopulationPerSpot is the initial population size per receptor spot
	// (the "Initial population (S)" column of Table 4, divided by spots).
	PopulationPerSpot int
	// SelectFraction is the fraction of S selected into Ssel.
	SelectFraction float64
	// ImproveFraction is the fraction of offspring improved by local
	// search (the "% of elements to be improved" column).
	ImproveFraction float64
	// ImproveMoves is the number of local-search moves applied to each
	// improved element (the paper's local-search intensity).
	ImproveMoves int
	// Generations is the End condition: a fixed number of template
	// iterations. Neighbourhood methods like M4 use 1.
	Generations int
	// MoveScale bounds the local-search step; the zero value means
	// conformation.DefaultMoveScale.
	MoveScale conformation.MoveScale
}

// moveScale returns the effective local-search step.
func (p Params) moveScale() conformation.MoveScale {
	if p.MoveScale == (conformation.MoveScale{}) {
		return conformation.DefaultMoveScale
	}
	return p.MoveScale
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.PopulationPerSpot <= 0:
		return fmt.Errorf("metaheuristic: population %d", p.PopulationPerSpot)
	case p.Generations <= 0:
		return fmt.Errorf("metaheuristic: generations %d", p.Generations)
	case p.SelectFraction < 0 || p.SelectFraction > 1:
		return fmt.Errorf("metaheuristic: select fraction %g", p.SelectFraction)
	case p.ImproveFraction < 0 || p.ImproveFraction > 1:
		return fmt.Errorf("metaheuristic: improve fraction %g", p.ImproveFraction)
	case p.ImproveMoves < 0:
		return fmt.Errorf("metaheuristic: improve moves %d", p.ImproveMoves)
	}
	return nil
}

// SpotContext is what an algorithm knows about the spot it optimizes.
type SpotContext struct {
	// Spot is the surface region.
	Spot surface.Spot
	// Sampler generates and perturbs conformations for the spot.
	Sampler *conformation.Sampler
	// RNG is the spot's private random stream (split from the run seed, so
	// results are independent of spot evaluation order).
	RNG *rng.Source
}

// Algorithm is a metaheuristic: a named parameter set plus a factory for
// per-spot optimization state. Template, one row of Table 4 filled into the
// paper's Algorithm 1, is the implementation.
type Algorithm interface {
	// Name identifies the metaheuristic, e.g. "M2".
	Name() string
	// Params returns the template parameters.
	Params() Params
	// NewSpotState creates the optimization state for one spot.
	NewSpotState(ctx *SpotContext) *SpotState
}
