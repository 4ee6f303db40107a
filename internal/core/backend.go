package core

import (
	"math"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// ImproveItem is one local-search assignment: a conformation to improve,
// the sampler of its spot, and a private random stream so results do not
// depend on execution order.
type ImproveItem struct {
	Conf    *conformation.Conformation
	Sampler *conformation.Sampler
	RNG     *rng.Source
}

// Backend executes the evaluation work of a run. Implementations mutate
// conformations in place and keep their own simulated-time and
// evaluation-count accounting. ScoreBatch and ImproveBatch are each called
// once per generation with the work of all spots, which is exactly the
// batching that fills GPU grids in the paper's scheme.
type Backend interface {
	// Name identifies the backend configuration for reports.
	Name() string
	// ScoreBatch evaluates every conformation in the batch (the engine
	// only passes unscored ones).
	ScoreBatch(confs []*conformation.Conformation)
	// ImproveBatch runs `moves` local-search steps on every item,
	// replacing each conformation with the best pose found (never worse).
	ImproveBatch(items []ImproveItem, moves int, scale conformation.MoveScale)
	// HostOps charges the serial host phases (Select/Combine/Include)
	// over count population elements to the timeline.
	HostOps(count int)
	// SimTime returns the accumulated simulated seconds.
	SimTime() float64
	// Evaluations returns the number of scoring-function evaluations
	// performed or modeled so far.
	Evaluations() int64
}

// newCompute builds the scoring strategy for a backend: the modeled
// surrogate, or the real force field with stochastic local search.
func newCompute(p *Problem, real bool) compute {
	if !real {
		return newModeledCompute(p)
	}
	// One neighbor list per spot, built once here and reused every
	// generation; the cell list scores the poses they do not cover.
	cells := p.rec.CellList().ForLigand(p.ligTopo)
	return &realCompute{cells: cells, nl: p.SpotNeighborLists(cells), ligand: p.LigandPositions()}
}

// poseArena is one worker goroutine's persistent scoring workspace: a flat
// coordinate array sliced into per-conformation pose buffers plus the
// batched score output and coverage (scoreBatch), a single-pose buffer
// (score, improve), and the neighbor list's candidate scratch. Everything
// reuses capacity, so steady-state generations allocate nothing.
type poseArena struct {
	flat    []vec.V3
	poses   [][]vec.V3
	out     []float64
	covered []bool
	one     []vec.V3
	nl      forcefield.NeighborScratch
}

// single returns the single-pose buffer, sized to the ligand.
func (a *poseArena) single(atoms int) []vec.V3 {
	if cap(a.one) < atoms {
		a.one = make([]vec.V3, atoms)
	}
	return a.one[:atoms]
}

func (a *poseArena) resize(n, atoms int) {
	need := n * atoms
	if cap(a.flat) < need {
		a.flat = make([]vec.V3, need)
	}
	a.flat = a.flat[:need]
	if cap(a.poses) < n {
		a.poses = make([][]vec.V3, n)
	}
	a.poses = a.poses[:n]
	for i := range a.poses {
		a.poses[i] = a.flat[i*atoms : (i+1)*atoms : (i+1)*atoms]
	}
	if cap(a.out) < n {
		a.out = make([]float64, n)
		a.covered = make([]bool, n)
	}
	a.out, a.covered = a.out[:n], a.covered[:n]
}

// compute is the scoring strategy shared by backends: real force-field
// evaluation or the modeled surrogate.
type compute interface {
	// score evaluates c in place using the calling worker's arena.
	score(c *conformation.Conformation, a *poseArena)
	// scoreBatch evaluates every conformation of the slice using a's
	// pooled pose buffers. It assigns exactly the scores score would.
	scoreBatch(confs []*conformation.Conformation, a *poseArena)
	// improve runs moves hill-climbing steps on c in place.
	improve(it ImproveItem, moves int, scale conformation.MoveScale, a *poseArena)
}

// realCompute actually evaluates the force field.
type realCompute struct {
	// cells scores the whole receptor: the fallback for poses the spot's
	// neighbor list does not cover.
	cells *forcefield.CellList
	// nl holds one precomputed candidate list per spot: the receptor atoms
	// within the cutoff of the spot's search region, gathered once and
	// reused across all generations.
	nl     []*forcefield.NeighborList
	ligand []vec.V3
}

// scorePose picks the cheapest exact scorer for a posed ligand: the spot's
// neighbor list when the pose stays inside its covered region, the cell
// list otherwise. Every pose the spot's sampler produces stays inside; the
// fallback serves poses it did not produce, such as TestEnergiesGolden's
// poses shifted off their spot.
// score, scoreBatch and improve all go through it, so batched and
// unbatched runs produce byte-identical scores.
func (rc *realCompute) scorePose(spot int, pose []vec.V3, s *forcefield.NeighborScratch) float64 {
	if spot >= 0 && spot < len(rc.nl) {
		if e, covered := rc.nl[spot].ScorePose(pose, s); covered {
			return e
		}
	}
	return rc.cells.Score(pose)
}

func (rc *realCompute) score(c *conformation.Conformation, a *poseArena) {
	buf := a.single(len(rc.ligand))
	c.Apply(rc.ligand, buf)
	c.Score = rc.scorePose(c.Spot, buf, &a.nl)
}

// scoreBatch poses the batch into a's buffers and scores it through the
// spots' neighbor lists: each run of consecutive conformations on one spot
// goes to its list in one ScorePoses call, which scores the run two poses
// at a time; a pose the list does not cover goes to the cell list, as in
// scorePose. Engine batches are contiguous by spot, so the runs are long.
func (rc *realCompute) scoreBatch(confs []*conformation.Conformation, a *poseArena) {
	a.resize(len(confs), len(rc.ligand))
	for i, c := range confs {
		c.Apply(rc.ligand, a.poses[i])
	}
	for lo := 0; lo < len(confs); {
		spot, hi := confs[lo].Spot, lo+1
		for hi < len(confs) && confs[hi].Spot == spot {
			hi++
		}
		if spot >= 0 && spot < len(rc.nl) {
			rc.nl[spot].ScorePoses(a.poses[lo:hi], a.out[lo:hi], a.covered[lo:hi], &a.nl)
		} else {
			clear(a.covered[lo:hi])
		}
		for i := lo; i < hi; i++ {
			if !a.covered[i] {
				a.out[i] = rc.cells.Score(a.poses[i])
			}
			confs[i].Score = a.out[i]
		}
		lo = hi
	}
}

func (rc *realCompute) improve(it ImproveItem, moves int, scale conformation.MoveScale, a *poseArena) {
	cur := *it.Conf
	if !cur.Evaluated() {
		rc.score(&cur, a)
	}
	for m := 0; m < moves; m++ {
		cand := it.Sampler.Perturb(it.RNG, cur, scale)
		rc.score(&cand, a)
		if cand.Better(cur) {
			cur = cand
		}
	}
	*it.Conf = cur
}

// modeledCompute synthesizes scores from a smooth deterministic surrogate:
// the squared distance to a hidden per-spot target pose plus a small
// deterministic ripple. It preserves the optimization semantics (a
// well-defined optimum per spot, improvement under local search) without
// evaluating atom pairs, so full paper-scale workloads replay quickly.
type modeledCompute struct {
	targets []vec.V3 // per spot
}

// newModeledCompute derives one hidden target per spot, placed inside the
// spot's search region.
func newModeledCompute(p *Problem) *modeledCompute {
	mc := &modeledCompute{targets: make([]vec.V3, len(p.Spots))}
	standoff := p.LigandRadius() + 1.5
	for i, s := range p.Spots {
		base := s.Center.Add(s.Normal.Scale(standoff))
		// Deterministic in-region offset from the spot ID.
		r := rng.New(0xfeed ^ uint64(i)*0x9e3779b97f4a7c15)
		mc.targets[i] = base.Add(r.InSphere(s.Radius * 0.6))
	}
	return mc
}

func (mc *modeledCompute) surrogate(c conformation.Conformation) float64 {
	t := mc.targets[c.Spot]
	d2 := c.Translation.Dist2(t)
	// A gentle orientation-dependent ripple keeps orientations relevant.
	ripple := 0.1 * math.Abs(c.Orientation.W)
	return d2 + ripple - 25 // offset so good poses go negative like energies
}

func (mc *modeledCompute) score(c *conformation.Conformation, _ *poseArena) {
	c.Score = mc.surrogate(*c)
}

func (mc *modeledCompute) scoreBatch(confs []*conformation.Conformation, _ *poseArena) {
	for _, c := range confs {
		c.Score = mc.surrogate(*c)
	}
}

// improve models the outcome of `moves` hill-climbing steps: the pose
// moves toward the hidden target with diminishing returns in the move
// count, matching the qualitative convergence of real local search.
func (mc *modeledCompute) improve(it ImproveItem, moves int, _ conformation.MoveScale, _ *poseArena) {
	c := *it.Conf
	t := mc.targets[c.Spot]
	frac := 1 - math.Exp(-float64(moves)/16)
	c.Translation = c.Translation.Lerp(t, frac)
	c.Score = mc.surrogate(c)
	if c.Better(*it.Conf) || !it.Conf.Evaluated() {
		*it.Conf = c
	}
}
