package molecule

import (
	"fmt"
	"math"

	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// The paper evaluates on two crystal structures of human serum albumin from
// the Protein Data Bank (its Table 5):
//
//	2BSM: receptor 3264 atoms, ligand 45 atoms
//	2BXG: receptor 8609 atoms, ligand 32 atoms
//
// The real coordinate files are not redistributable here, so metascreen
// generates deterministic synthetic structures with exactly those atom
// counts and protein-like geometry (compact globular fold, 3.8 A CA-CA
// backbone spacing, realistic heavy-atom density). The scoring workload
// depends only on atom counts and spatial distribution, so these stand-ins
// preserve the computational behaviour the paper measures.

// Benchmark compound atom counts from the paper's Table 5.
const (
	Atoms2BSMReceptor = 3264
	Atoms2BSMLigand   = 45
	Atoms2BXGReceptor = 8609
	Atoms2BXGLigand   = 32
)

// Synthetic2BSMReceptor returns the synthetic stand-in for the 2BSM receptor.
func Synthetic2BSMReceptor() *Molecule {
	return SyntheticProtein("2BSM-receptor", Atoms2BSMReceptor, 0x2b5a)
}

// Synthetic2BSMLigand returns the synthetic stand-in for the 2BSM ligand.
func Synthetic2BSMLigand() *Molecule {
	return SyntheticLigand("2BSM-ligand", Atoms2BSMLigand, 0x2b5b)
}

// Synthetic2BXGReceptor returns the synthetic stand-in for the 2BXG receptor.
func Synthetic2BXGReceptor() *Molecule {
	return SyntheticProtein("2BXG-receptor", Atoms2BXGReceptor, 0x2bc6)
}

// Synthetic2BXGLigand returns the synthetic stand-in for the 2BXG ligand.
func Synthetic2BXGLigand() *Molecule {
	return SyntheticLigand("2BXG-ligand", Atoms2BXGLigand, 0x2bc7)
}

// sideChainLengths approximates the distribution of heavy side-chain sizes
// over the 20 amino acids (glycine 0 ... tryptophan 10, average ~4).
var sideChainLengths = []int{0, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 9, 10}

// SyntheticProtein generates a deterministic protein-like receptor with
// exactly numAtoms atoms. The backbone is a compact self-avoiding walk of
// residues (N, CA, C, O plus a side chain); the fold is biased toward the
// origin so the result is globular with a density close to real proteins
// (~0.01 heavy atoms per cubic angstrom within the fold envelope).
func SyntheticProtein(name string, numAtoms int, seed uint64) *Molecule {
	if numAtoms <= 0 {
		panic(fmt.Sprintf("molecule: SyntheticProtein(%q) with %d atoms", name, numAtoms))
	}
	r := rng.New(seed)
	// Expected fold radius for a globular protein: V = numAtoms / density.
	const density = 0.0095 // heavy atoms per cubic angstrom
	radius := math.Cbrt(3 * float64(numAtoms) / (4 * math.Pi * density))

	atoms := make([]Atom, 0, numAtoms)
	ca := vec.Zero
	dir := r.UnitVector()
	residue := 0

	for len(atoms) < numAtoms {
		residue++
		// Backbone atoms around the current CA position.
		n := ca.Add(dir.Scale(-1.46).Add(r.InSphere(0.25)))
		c := ca.Add(dir.Scale(1.52).Add(r.InSphere(0.25)))
		o := c.Add(r.UnitVector().Scale(1.23))
		backbone := []Atom{
			{Name: "N", Element: Nitrogen, Pos: n, Residue: residue},
			{Name: "CA", Element: Carbon, Pos: ca, Residue: residue},
			{Name: "C", Element: Carbon, Pos: c, Residue: residue},
			{Name: "O", Element: Oxygen, Pos: o, Residue: residue},
		}
		for _, a := range backbone {
			if len(atoms) == numAtoms {
				break
			}
			atoms = append(atoms, a)
		}

		// Side chain: short branch off the CA.
		scLen := sideChainLengths[r.Intn(len(sideChainLengths))]
		branch := ca
		branchDir := r.UnitVector()
		for s := 0; s < scLen && len(atoms) < numAtoms; s++ {
			branch = branch.Add(branchDir.Scale(1.53))
			branchDir = branchDir.Add(r.InSphere(0.8)).Unit()
			el := Carbon
			switch {
			case s == scLen-1 && r.Bool(0.30):
				el = Oxygen
			case s == scLen-1 && r.Bool(0.20):
				el = Nitrogen
			case s >= 2 && r.Bool(0.03):
				el = Sulfur
			}
			atoms = append(atoms, Atom{
				Name:    fmt.Sprintf("S%d", s+1),
				Element: el, Pos: branch, Residue: residue,
			})
		}

		// Advance the backbone 3.8 A, biased back toward the origin once the
		// walk leaves the target fold radius, producing a compact globule.
		step := dir.Add(r.InSphere(0.9))
		if ca.Norm() > radius {
			step = step.Add(ca.Unit().Scale(-1.6 * (ca.Norm()/radius - 1)))
		}
		dir = step.Unit()
		ca = ca.Add(dir.Scale(3.8))
	}
	return New(name, atoms)
}

// SyntheticLigand generates a deterministic drug-like small molecule with
// exactly numAtoms atoms: a branched chain of heavy atoms at covalent
// spacing, centered on its centroid.
func SyntheticLigand(name string, numAtoms int, seed uint64) *Molecule {
	if numAtoms <= 0 {
		panic(fmt.Sprintf("molecule: SyntheticLigand(%q) with %d atoms", name, numAtoms))
	}
	r := rng.New(seed)
	atoms := make([]Atom, 0, numAtoms)
	pos := vec.Zero
	dir := r.UnitVector()
	// Branch points remembered for restarts, giving a branched topology.
	branches := []vec.V3{pos}

	for i := 0; i < numAtoms; i++ {
		el := Carbon
		switch {
		case r.Bool(0.15):
			el = Oxygen
		case r.Bool(0.12):
			el = Nitrogen
		case r.Bool(0.03):
			el = Sulfur
		default:
			// A carbon's draw: its value is unused, but every later
			// draw, and so every ligand's geometry, follows it.
			r.Float64()
		}
		atoms = append(atoms, Atom{
			Name:    fmt.Sprintf("L%d", i+1),
			Element: el, Pos: pos,
		})
		if r.Bool(0.25) && len(branches) > 0 {
			// Restart from a previous branch point.
			pos = branches[r.Intn(len(branches))]
			dir = r.UnitVector()
		}
		branches = append(branches, pos)
		dir = dir.Add(r.InSphere(0.7)).Unit()
		pos = pos.Add(dir.Scale(1.5))
	}
	return New(name, atoms).Centered()
}
