// Package forcefield implements the scoring function used to evaluate
// protein-ligand conformations: following the paper (section 3.1), the
// Lennard-Jones 12-6 potential, summed over receptor-ligand atom pairs
// within a cutoff.
//
// Three scorer implementations share one semantics:
//
//   - Direct: the reference O(R*L) double loop.
//   - CellList: a neighbour-grid scorer exploiting the interaction cutoff.
//   - NeighborList: one spot's precomputed receptor neighbourhood, the
//     Real-mode hot path (the cell list scores the poses it misses).
package forcefield

import (
	"math"

	"github.com/metascreen/metascreen/internal/molecule"
)

// LJParam holds the per-element Lennard-Jones well depth epsilon
// (kcal/mol) and collision diameter sigma (angstrom).
type LJParam struct {
	Epsilon float64
	Sigma   float64
}

// ljByElement holds AMBER-like parameters per element, indexed by
// molecule.Element.
var ljByElement = [...]LJParam{
	molecule.Hydrogen:   {Epsilon: 0.0157, Sigma: 2.65},
	molecule.Carbon:     {Epsilon: 0.0860, Sigma: 3.40},
	molecule.Nitrogen:   {Epsilon: 0.1700, Sigma: 3.25},
	molecule.Oxygen:     {Epsilon: 0.2100, Sigma: 2.96},
	molecule.Sulfur:     {Epsilon: 0.2500, Sigma: 3.56},
	molecule.Phosphorus: {Epsilon: 0.2000, Sigma: 3.74},
}

// numTypes is the number of distinct force-field atom types.
const numTypes = len(ljByElement)

// PairParam holds the pre-mixed coefficients for a pair of atom types in the
// form the kernels consume: E(r) = A/r^12 - B/r^6 with A = 4*eps*sigma^12
// and B = 4*eps*sigma^6.
type PairParam struct {
	A, B float64
}

// PairTable is the dense numTypes x numTypes matrix of pre-mixed pair
// coefficients under Lorentz-Berthelot mixing rules (arithmetic-mean sigma,
// geometric-mean epsilon).
type PairTable [numTypes * numTypes]PairParam

// NewPairTable builds the mixed-parameter table.
func NewPairTable() *PairTable {
	var t PairTable
	for i := 0; i < numTypes; i++ {
		for j := 0; j < numTypes; j++ {
			eps := math.Sqrt(ljByElement[i].Epsilon * ljByElement[j].Epsilon)
			sig := (ljByElement[i].Sigma + ljByElement[j].Sigma) / 2
			s2 := sig * sig
			s6 := s2 * s2 * s2
			t[i*numTypes+j] = PairParam{A: 4 * eps * s6 * s6, B: 4 * eps * s6}
		}
	}
	return &t
}

// At returns the mixed coefficients for the type pair (i, j).
func (t *PairTable) At(i, j uint8) PairParam { return t[int(i)*numTypes+int(j)] }
