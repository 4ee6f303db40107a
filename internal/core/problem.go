// Package core is metascreen's virtual-screening engine: it ties the
// molecular model, scoring functions, surface spots, metaheuristics,
// host runtime and GPU simulator together into end-to-end screening runs,
// reproducing the paper's execution scheme (its sections 3.1-3.3).
//
// A run optimizes ligand conformations at every receptor surface spot
// simultaneously with a chosen metaheuristic. Evaluation is batched across
// spots each generation and dispatched to a Backend:
//
//   - HostBackend is the multicore "OpenMP" baseline;
//   - PoolBackend drives a simulated multi-GPU node through
//     internal/sched, in homogeneous, heterogeneous or dynamic mode.
//
// Both backends run in one of two compute modes:
//
//   - Real: conformation energies are actually computed with
//     internal/forcefield (used by tests, examples and benchmarks);
//   - Modeled: energies are synthesized from a smooth deterministic
//     surrogate and time comes from the calibrated cost model, which lets
//     the table harness replay the paper's full-scale workloads in
//     milliseconds.
package core

import (
	"fmt"
	"sync"

	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

// Problem is one docking problem: a receptor with detected surface spots
// and a centered ligand.
type Problem struct {
	// Receptor is the target protein.
	Receptor *molecule.Molecule
	// Ligand is the small molecule, centered on its centroid.
	Ligand *molecule.Molecule
	// Spots are the independent surface regions.
	Spots []surface.Spot

	rec     *PreparedReceptor
	ligTopo *forcefield.Topology
	ligPos  []vec.V3
}

// PreparedReceptor is the ligand-independent half of a problem: the
// validated receptor, its surface spots, its scoring topology and (on first
// use) its cell binning. It is immutable once built and safe for concurrent
// use, so a library screen prepares its receptor once and every ligand's
// problem shares it — and a long-lived caller such as the screening service
// keeps it across screens.
type PreparedReceptor struct {
	mol   *molecule.Molecule
	topo  *forcefield.Topology
	cells *lazyCells // shared by every WithSpots copy
	spots []surface.Spot
}

// lazyCells is a receptor's cell binning, built on first use (Modeled runs
// and the other scorers never need it).
type lazyCells struct {
	once sync.Once
	list *forcefield.CellList // ligand-less; see CellList.ForLigand
}

// PrepareReceptor validates the receptor, flattens its scoring topology
// and detects its surface spots.
func PrepareReceptor(receptor *molecule.Molecule, spotOpts surface.Options) (*PreparedReceptor, error) {
	if err := receptor.Validate(); err != nil {
		return nil, fmt.Errorf("core: receptor: %w", err)
	}
	r := &PreparedReceptor{mol: receptor, topo: forcefield.NewTopology(receptor), cells: &lazyCells{}}
	return r.WithSpots(spotOpts)
}

// WithSpots returns the same receptor with its spots detected under
// spotOpts. The molecule, topology and cell binning are shared, not
// rebuilt.
func (r *PreparedReceptor) WithSpots(spotOpts surface.Options) (*PreparedReceptor, error) {
	spots, err := surface.FindSpots(r.mol, spotOpts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := *r
	out.spots = spots
	return &out, nil
}

// Spots returns the receptor's detected surface spots.
func (r *PreparedReceptor) Spots() []surface.Spot { return r.spots }

// CellList returns the receptor's cell binning, built on first use.
func (r *PreparedReceptor) CellList() *forcefield.CellList {
	r.cells.once.Do(func() {
		r.cells.list = forcefield.NewCellList(r.topo, nil)
	})
	return r.cells.list
}

// NewProblem validates the molecules, detects surface spots and prepares
// scoring topologies. The forcefield options select nothing (see
// forcefield.Options).
func NewProblem(receptor, ligand *molecule.Molecule, spotOpts surface.Options, _ forcefield.Options) (*Problem, error) {
	rec, err := PrepareReceptor(receptor, spotOpts)
	if err != nil {
		return nil, err
	}
	return rec.newProblem(ligand)
}

// newProblem pairs the prepared receptor with one ligand.
func (r *PreparedReceptor) newProblem(ligand *molecule.Molecule) (*Problem, error) {
	if err := ligand.Validate(); err != nil {
		return nil, fmt.Errorf("core: ligand: %w", err)
	}
	lig := ligand.Centered()
	p := &Problem{
		Receptor: r.mol,
		Ligand:   lig,
		Spots:    r.spots,
		rec:      r,
		ligTopo:  forcefield.NewTopology(lig),
	}
	p.ligPos = p.ligTopo.Pos
	return p, nil
}

// PairsPerConformation returns receptorAtoms * ligandAtoms, the work unit
// of one scoring evaluation.
func (p *Problem) PairsPerConformation() int {
	return p.Receptor.NumAtoms() * p.Ligand.NumAtoms()
}

// LigandRadius returns the centered ligand's bounding radius, which sets
// the conformation standoff.
func (p *Problem) LigandRadius() float64 { return p.Ligand.Radius() }

// NewScorer builds a fresh full-receptor scorer over the problem's
// topologies: "direct", the reference pair loop, or "celllist", the scorer
// Real-mode runs fall back to off their spots' neighbor lists. Scorers are
// safe for concurrent Score calls.
func (p *Problem) NewScorer(kind string) (forcefield.Scorer, error) {
	switch kind {
	case "direct":
		return forcefield.NewDirect(p.rec.topo, p.ligTopo), nil
	case "celllist":
		return p.rec.CellList().ForLigand(p.ligTopo), nil
	}
	return nil, fmt.Errorf("core: unknown scorer %q (want direct or celllist)", kind)
}

// SpotNeighborLists gathers, for every spot, the receptor atoms within the
// interaction cutoff of the spot's search region — the precomputed
// neighborhood a whole run's worth of poses at that spot is scored
// against. The region bounds every pose the spot's sampler can produce:
// translations stay inside the spot sphere, and atoms extend at most the
// ligand's reach, its bounding radius, beyond the translation (the
// neighbor list's Covers check catches any pose that still escapes).
func (p *Problem) SpotNeighborLists(cells *forcefield.CellList) []*forcefield.NeighborList {
	reach := p.LigandRadius()
	standoff := p.LigandRadius() + 1.5
	out := make([]*forcefield.NeighborList, len(p.Spots))
	for i, s := range p.Spots {
		base := s.Center.Add(s.Normal.Scale(standoff))
		half := vec.V3{X: 1, Y: 1, Z: 1}.Scale(s.Radius + reach + 1e-6)
		region := vec.NewAABB(base.Sub(half), base.Add(half))
		out[i] = forcefield.NewNeighborList(cells, p.rec.topo, region)
	}
	return out
}

// LigandPositions returns the centered ligand coordinates the scorers and
// conformations operate on. Callers must not mutate the slice.
func (p *Problem) LigandPositions() []vec.V3 { return p.ligPos }

// SubsetSpots returns a problem over a subset of the receptor's spots,
// re-identified densely from 0. The prepared receptor and the ligand
// topology are shared with the parent (they are immutable). This is how multi-node runs partition the spot set: spots
// are independent sub-problems, so any partition preserves results.
func (p *Problem) SubsetSpots(indices []int) (*Problem, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("core: empty spot subset")
	}
	spots := make([]surface.Spot, 0, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(p.Spots) {
			return nil, fmt.Errorf("core: spot index %d out of range [0,%d)", i, len(p.Spots))
		}
		s := p.Spots[i]
		s.ID = len(spots)
		spots = append(spots, s)
	}
	return &Problem{
		Receptor: p.Receptor,
		Ligand:   p.Ligand,
		Spots:    spots,
		rec:      p.rec,
		ligTopo:  p.ligTopo,
		ligPos:   p.ligPos,
	}, nil
}

// Dataset is a named receptor-ligand benchmark pair.
type Dataset struct {
	// Name is the PDB-style identifier, e.g. "2BSM".
	Name string
	// Receptor and Ligand are the molecules.
	Receptor, Ligand *molecule.Molecule
}

// Dataset2BSM returns the synthetic stand-in for the paper's PDB:2BSM
// benchmark (receptor 3264 atoms, ligand 45).
func Dataset2BSM() Dataset {
	return Dataset{
		Name:     "2BSM",
		Receptor: molecule.Synthetic2BSMReceptor(),
		Ligand:   molecule.Synthetic2BSMLigand(),
	}
}

// Dataset2BXG returns the synthetic stand-in for the paper's PDB:2BXG
// benchmark (receptor 8609 atoms, ligand 32).
func Dataset2BXG() Dataset {
	return Dataset{
		Name:     "2BXG",
		Receptor: molecule.Synthetic2BXGReceptor(),
		Ligand:   molecule.Synthetic2BXGLigand(),
	}
}

// datasets builds each benchmark dataset by name.
var datasets = map[string]func() Dataset{"2BSM": Dataset2BSM, "2BXG": Dataset2BXG}

// CheckDatasetName reports whether DatasetByName knows name, without
// building its molecules.
func CheckDatasetName(name string) error {
	if _, ok := datasets[name]; !ok {
		return fmt.Errorf("core: unknown dataset %q (want 2BSM or 2BXG)", name)
	}
	return nil
}

// DatasetByName returns one of the paper's two benchmark datasets.
func DatasetByName(name string) (Dataset, error) {
	if err := CheckDatasetName(name); err != nil {
		return Dataset{}, err
	}
	return datasets[name](), nil
}

// NewProblemFromDataset builds the problem for a benchmark dataset with
// default spot detection (spots = receptorAtoms/100, as the paper's timing
// ratios imply).
func NewProblemFromDataset(d Dataset, ff forcefield.Options) (*Problem, error) {
	return NewProblem(d.Receptor, d.Ligand, surface.Options{}, ff)
}
