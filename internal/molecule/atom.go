// Package molecule models receptors and ligands: atoms with element and
// force-field typing, whole molecules with derived geometry, a reader and
// writer for a PDB subset, and deterministic synthetic structure generators
// that reproduce the atom counts of the paper's benchmark compounds
// (PDB 2BSM and 2BXG).
package molecule

import (
	"fmt"

	"github.com/metascreen/metascreen/internal/vec"
)

// Element is a chemical element relevant to protein-ligand systems.
type Element uint8

// Elements that occur in the synthetic structures and the PDB subset parser.
const (
	Hydrogen Element = iota
	Carbon
	Nitrogen
	Oxygen
	Sulfur
	Phosphorus
	numElements
)

var elementNames = [numElements]string{"H", "C", "N", "O", "S", "P"}

// String returns the element symbol.
func (e Element) String() string {
	if int(e) < len(elementNames) {
		return elementNames[e]
	}
	return fmt.Sprintf("Element(%d)", uint8(e))
}

// ElementFromSymbol returns the element for a chemical symbol such as "C" or
// "FE" (unknown symbols map to Carbon, the most common heavy atom, with
// ok=false).
func ElementFromSymbol(sym string) (Element, bool) {
	switch sym {
	case "H", "D":
		return Hydrogen, true
	case "C":
		return Carbon, true
	case "N":
		return Nitrogen, true
	case "O":
		return Oxygen, true
	case "S":
		return Sulfur, true
	case "P":
		return Phosphorus, true
	}
	return Carbon, false
}

// Atom is a single atom of a receptor or ligand.
type Atom struct {
	// Serial is the 1-based atom index within its molecule.
	Serial int
	// Name is the PDB atom name, e.g. "CA" for an alpha carbon.
	Name string
	// Element is the chemical element.
	Element Element
	// Pos is the position in angstroms.
	Pos vec.V3
	// Residue is the 1-based residue index the atom belongs to (0 for
	// ligands and free atoms).
	Residue int
}

// IsAlphaCarbon reports whether the atom is a protein backbone alpha carbon.
// The paper identifies surface spots by "finding out a specific type of
// atoms in the protein"; metascreen uses alpha carbons as that type.
func (a Atom) IsAlphaCarbon() bool { return a.Name == "CA" && a.Element == Carbon }
