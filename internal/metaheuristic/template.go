package metaheuristic

import (
	"slices"

	"github.com/metascreen/metascreen/internal/conformation"
)

// combineKind is the Combine step a Table 4 row uses. It also fixes Begin
// and Include: the population methods keep S sorted best-first and include
// elitistically, the neighbourhood method keeps S in seed order and
// replaces each element only by its own improvement.
type combineKind uint8

const (
	// blend is M1's genetic Combine: tournament-picked parents, a random
	// convex blend, and a mutation move on a fraction of the children.
	blend combineKind = iota
	// pairs is M2/M3's scatter-search Combine: every pair of the best
	// refSubset individuals, cycled until S is full.
	pairs
	// neighbourhood is M4's Combine: a copy of the scored S, which the
	// driver's improve kernel then searches around.
	neighbourhood
)

const (
	// tournament is blend's tournament size for parent selection.
	tournament = 3
	// mutation is the probability a blended child is additionally
	// perturbed (classic GA mutation, one sampler move).
	mutation = 0.1
	// refSubset bounds how many of the best individuals pairs combines.
	refSubset = 10
)

// Template is a metaheuristic: the paper's six-function template filled
// with one row of its Table 4. The constructors choose the Combine step;
// Initialize, End, Select, Improve and Include are shared.
type Template struct {
	name    string
	params  Params
	combine combineKind
}

// NewGenetic returns the genetic algorithm behind the paper's M1:
// tournament selection from the best individuals, blend recombination,
// optional local search on a fraction of offspring, and elitist inclusion.
func NewGenetic(name string, p Params) (*Template, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Template{name: name, params: p, combine: blend}, nil
}

// NewScatterSearch returns the evolutionary method behind the paper's M2
// and M3: systematic pairwise combination of the best subset of the
// reference set, local search on a fraction of the offspring, and
// reference-set update by quality.
func NewScatterSearch(name string, p Params) (*Template, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Template{name: name, params: p, combine: pairs}, nil
}

// NewLocalSearch returns the paper's M4: a pure neighbourhood method that
// applies one step of intensive local search to every element of a large
// initial set ("only one step, and so there is no selection of elements
// after improving"). Generations is forced to 1 and ImproveFraction to 1.
func NewLocalSearch(name string, p Params) (*Template, error) {
	p.Generations = 1
	p.ImproveFraction = 1
	if p.SelectFraction == 0 {
		p.SelectFraction = 1 // "does not apply" in the paper's Table 4
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Template{name: name, params: p, combine: neighbourhood}, nil
}

// Name implements Algorithm.
func (a *Template) Name() string { return a.name }

// Params implements Algorithm.
func (a *Template) Params() Params { return a.params }

// NewSpotState implements Algorithm.
func (a *Template) NewSpotState(ctx *SpotContext) *SpotState {
	return &SpotState{alg: a, ctx: ctx}
}

// SpotState is the per-spot optimization protocol the driver speaks. One
// generation is:
//
//	scom := state.Propose()            // Select + Combine (host side)
//	<driver evaluates unscored scom>   // scoring kernel
//	idx := state.ImproveTargets(scom)  // which offspring get local search
//	<driver runs local search>         // improve kernel, updates scom
//	state.Integrate(scom)              // Include (host side)
//
// before which the driver evaluates Seed() and installs it with Begin().
type SpotState struct {
	alg *Template
	ctx *SpotContext
	pop Population
	// scom and spare are per-generation buffers reused across generations
	// (offspring and elitist output respectively), as are the index
	// buffers ord (Include's permutation of the offspring) and targets
	// (the improve ranking ImproveTargets returns), so a steady-state
	// generation allocates nothing.
	scom    Population
	spare   Population
	ord     []int32
	targets []int
}

// Seed returns the unscored initial population (Initialize). Called
// exactly once, before Begin.
func (s *SpotState) Seed() Population {
	pop := make(Population, s.alg.params.PopulationPerSpot)
	for i := range pop {
		pop[i] = s.ctx.Sampler.Random(s.ctx.RNG)
	}
	return pop
}

// Begin installs the evaluated initial population.
func (s *SpotState) Begin(pop Population) {
	s.pop = pop.Clone()
	if s.alg.combine != neighbourhood {
		s.pop.SortByScore()
	}
}

// Propose returns Scom: the offspring for this generation. Elements may be
// unscored (the driver will evaluate them) or carry scores (M4 re-proposes
// its scored population for pure local search).
func (s *SpotState) Propose() Population {
	if s.alg.combine == neighbourhood {
		if cap(s.scom) < len(s.pop) {
			s.scom = make(Population, len(s.pop))
		}
		s.scom = s.scom[:len(s.pop)]
		copy(s.scom, s.pop)
		return s.scom
	}
	r := s.ctx.RNG
	p := s.alg.params
	// Select: the best SelectFraction of S form the mating pool (Ssel).
	// s.pop is kept sorted best-first by Begin and Integrate, so selection
	// is a prefix view — no per-generation clone or re-sort.
	nsel := int(float64(len(s.pop))*p.SelectFraction + 0.5)
	if nsel < 2 {
		nsel = min(2, len(s.pop))
	}
	pool := s.pop[:nsel]
	if cap(s.scom) < p.PopulationPerSpot {
		s.scom = make(Population, 0, p.PopulationPerSpot)
	}
	scom := s.scom[:0]
	switch s.alg.combine {
	case blend:
		pick := func() int {
			best := r.Intn(len(pool))
			for t := 1; t < tournament; t++ {
				if c := r.Intn(len(pool)); pool[c].Score < pool[best].Score {
					best = c
				}
			}
			return best
		}
		for len(scom) < p.PopulationPerSpot {
			a, b := pick(), pick()
			child := s.ctx.Sampler.Combine(r, pool[a], pool[b])
			if r.Bool(mutation) {
				child = s.ctx.Sampler.Perturb(r, child, p.moveScale())
			}
			scom = append(scom, child)
		}
	case pairs:
		b := min(refSubset, p.PopulationPerSpot, len(pool))
		for len(scom) < p.PopulationPerSpot {
			for i := 0; i < b && len(scom) < p.PopulationPerSpot; i++ {
				for j := i + 1; j < b && len(scom) < p.PopulationPerSpot; j++ {
					scom = append(scom, s.ctx.Sampler.Combine(r, pool[i], pool[j]))
				}
			}
			if b < 2 {
				// Degenerate subset: fall back to random diversification.
				scom = append(scom, s.ctx.Sampler.Random(r))
			}
		}
	}
	s.scom = scom
	return scom
}

// ImproveTargets returns the indices in scom to run local search on: the
// best ImproveFraction of the offspring, or all of M4's set in order. The
// slice is the state's buffer, valid until the next call.
func (s *SpotState) ImproveTargets(scom Population) []int {
	if s.alg.combine == neighbourhood {
		s.targets = indices(s.targets, len(scom))
		return s.targets
	}
	s.targets = improveFraction(s.targets, scom, s.alg.params.ImproveFraction)
	return s.targets
}

// Integrate merges the evaluated (and possibly improved) offspring into
// the population (Include): the best PopulationPerSpot of S and Scom, or
// for M4 the element-wise better of each original and its improvement
// (local search never worsens a solution).
func (s *SpotState) Integrate(scom Population) {
	if s.alg.combine == neighbourhood {
		for i := range scom {
			if i < len(s.pop) && scom[i].Score < s.pop[i].Score {
				s.pop[i] = scom[i]
			}
		}
		return
	}
	if cap(s.ord) < len(scom) {
		s.ord = make([]int32, len(scom))
	}
	s.spare = elitistInto(s.spare, s.pop, scom, s.ord[:len(scom)], s.alg.params.PopulationPerSpot)
	s.pop, s.spare = s.spare, s.pop
}

// Population returns the current population S.
func (s *SpotState) Population() Population { return s.pop }

// Done reports whether the End condition holds after gen completed
// generations.
func (s *SpotState) Done(gen int) bool { return gen >= s.alg.params.Generations }

// Best returns the best individual found so far.
func (s *SpotState) Best() conformation.Conformation {
	if i := s.pop.Best(); i >= 0 {
		return s.pop[i]
	}
	return conformation.Conformation{Score: conformation.Unscored}
}

// indices returns 0, 1, ..., n-1 in buf's backing array (grown as needed).
func indices(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = i
	}
	return buf
}

// improveFraction returns the indices of the best frac*len(scom) evaluated
// individuals (rounded to nearest, deterministic order), written into
// buf's backing array.
func improveFraction(buf []int, scom Population, frac float64) []int {
	if frac <= 0 || len(scom) == 0 {
		return nil
	}
	n := int(float64(len(scom))*frac + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(scom) {
		n = len(scom)
	}
	order := indices(buf, len(scom))
	// Best-first by score; unevaluated last; ties by index. The index
	// tie-break makes the order total, so the non-stable generic sort
	// reproduces the stable one without reflection overhead.
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case scom[a].Score < scom[b].Score:
			return -1
		case scom[b].Score < scom[a].Score:
			return 1
		}
		return a - b
	})
	return order[:n]
}

// elitistInto returns the best n individuals of the union of a and b — the
// first n elements of a stable best-first sort of a followed by b —
// written into dst's backing array (grown as needed), so the
// per-generation Include phase reuses one buffer instead of reallocating.
//
// It requires a to already be sorted best-first — Begin and Integrate
// maintain that invariant between generations — so b is sorted through an
// index permutation (16-byte key moves instead of whole-conformation
// moves) and the two halves are merged, ties taking a's element first:
// exactly the order a full stable sort of the concatenation would produce,
// at a fraction of the copying. ord is scratch of len(b) for the
// permutation. dst must not alias a or b.
func elitistInto(dst, a, b Population, ord []int32, n int) Population {
	for i := range ord {
		ord[i] = int32(i)
	}
	// Best-first; the index tie-break reproduces a stable sort of b.
	slices.SortFunc(ord, func(x, y int32) int {
		switch {
		case b[x].Score < b[y].Score:
			return -1
		case b[y].Score < b[x].Score:
			return 1
		}
		return int(x - y)
	})
	if total := len(a) + len(b); n > total {
		n = total
	}
	if cap(dst) < n {
		dst = make(Population, 0, n)
	}
	dst = dst[:0]
	i, j := 0, 0
	for len(dst) < n {
		switch {
		case i >= len(a):
			dst = append(dst, b[ord[j]])
			j++
		case j >= len(b):
			dst = append(dst, a[i])
			i++
		case b[ord[j]].Score < a[i].Score:
			dst = append(dst, b[ord[j]])
			j++
		default:
			dst = append(dst, a[i])
			i++
		}
	}
	return dst
}
