package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/metaheuristic"
)

// In Modeled mode the placement of work never changes the search: scores
// come from the surrogate, so a run on any backend visits the same
// conformations and launches the same batches. A Modeled run therefore
// splits into a search, run once, and one timeline per machine
// configuration, which replays the search's launches on that backend's
// clock and scores nothing.

// launches is one generation's work as the cost model reads it.
type launches struct {
	// score is the scoring kernel's batch: the unscored offspring.
	score int
	// improve is the improve kernel's batch, moves evaluations each.
	improve, moves int
	// hostOps is the population the serial host phases charge.
	hostOps int
}

// Search is a Modeled-mode search recorded once: the metaheuristic run
// against the surrogate score, with every launch it made and the best
// conformation after each generation. Timeline replays it on a backend.
type Search struct {
	algorithm string
	// initial is the initial population's score batch.
	initial int
	gens    []launches
	// best[g] is the overall best after g generations (g = 0: the
	// evaluated initial population).
	best []conformation.Conformation
	// spots holds the per-spot outcomes after the last generation.
	spots []SpotResult
}

// RunSearch runs the metaheuristic once against the Modeled surrogate and
// records its launches. The same problem, algorithm and seed give the
// search that core.Run performs on any Modeled backend. It is the
// one-range case of RunSearchSpots.
func RunSearch(p *Problem, alg metaheuristic.Algorithm, seed uint64) (*Search, error) {
	return RunSearchSpots(p, alg, seed, 0, len(p.Spots))
}

// RunSearchSpots runs the search on spots [lo, hi) of p alone. Nothing
// couples spots in a Modeled search: each spot draws from its own streams,
// the run's length is a fixed generation count, and the surrogate reads
// only the conformation and its spot's target. So the searches of
// contiguous ranges that cover p, merged in spot order by MergeSearches,
// equal RunSearch's bit for bit. The spots keep their IDs, and the
// surrogate's targets come from the whole problem, where they are keyed by
// spot ID.
func RunSearchSpots(p *Problem, alg metaheuristic.Algorithm, seed uint64, lo, hi int) (*Search, error) {
	if lo < 0 || hi > len(p.Spots) || lo > hi {
		return nil, fmt.Errorf("core: spot range [%d, %d) of %d spots", lo, hi, len(p.Spots))
	}
	sub := *p
	sub.Spots = p.Spots[lo:hi]
	b := &searchBackend{comp: newModeledCompute(p), s: &Search{algorithm: alg.Name()}}
	res, err := run(context.Background(), &sub, alg, b, seed, 0, lo)
	if err != nil {
		return nil, err
	}
	b.s.spots = res.Spots
	return b.s, nil
}

// MergeSearches combines the searches of contiguous spot ranges, given in
// spot order, into the search of their union: per generation it sums the
// launch counts and takes the best conformation first-wins, the engine's
// own tie order across spots. Parts of different metaheuristics or
// generation counts are an error.
func MergeSearches(parts []*Search) (*Search, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no searches to merge")
	}
	first := parts[0]
	m := &Search{
		algorithm: first.algorithm,
		gens:      make([]launches, len(first.gens)),
		best:      make([]conformation.Conformation, len(first.best)),
	}
	for g := range m.best {
		m.best[g].Score = conformation.Unscored
	}
	for _, s := range parts {
		if s.algorithm != first.algorithm || len(s.gens) != len(first.gens) {
			return nil, fmt.Errorf("core: merging a %d-generation %s search into a %d-generation %s search",
				len(s.gens), s.algorithm, len(first.gens), first.algorithm)
		}
		m.initial += s.initial
		for g, l := range s.gens {
			mg := &m.gens[g]
			mg.score += l.score
			mg.improve += l.improve
			mg.hostOps += l.hostOps
			if l.improve > 0 {
				mg.moves = l.moves
			}
		}
		for g, b := range s.best {
			if b.Better(m.best[g]) {
				m.best[g] = b
			}
		}
		m.spots = append(m.spots, s.spots...)
	}
	return m, nil
}

// Timeline replays the search on backend's clock: the same kernel and
// host-phase charges, in the same order, that core.Run makes on it,
// warm-up probes and noise draws included, with no scoring. The result
// equals core.Run's (RunBudget's for a positive budget) on an identical
// fresh backend, bit for bit, except WallSeconds; a run cut by the budget
// reports its best conformation but no per-spot outcomes. The backend
// must be a fresh Modeled-mode host or pool backend.
func (s *Search) Timeline(backend Backend, budget float64) (*Result, error) {
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("core: budget %g seconds", budget)
	}
	c, ok := backend.(charger)
	if !ok || !c.modeled() {
		return nil, fmt.Errorf("core: a timeline needs a Modeled-mode host or pool backend, not %s", backend.Name())
	}
	start := time.Now()
	if s.initial > 0 {
		c.charge(cudasim.KernelScoring, s.initial, 1)
	}
	if err := backendErr(backend); err != nil {
		return nil, fmt.Errorf("core: backend failed during initialization: %w", err)
	}
	res := &Result{Algorithm: s.algorithm, Backend: backend.Name()}
	for _, g := range s.gens {
		if budget > 0 && backend.SimTime() >= budget {
			res.DeadlineHit = true
			break
		}
		res.Generations++
		if g.score > 0 {
			c.charge(cudasim.KernelScoring, g.score, 1)
		}
		if g.improve > 0 && g.moves > 0 {
			c.charge(cudasim.KernelImprove, g.improve, g.moves)
		}
		backend.HostOps(g.hostOps)
		if err := backendErr(backend); err != nil {
			return nil, fmt.Errorf("core: backend failed at generation %d: %w", res.Generations, err)
		}
		res.History = append(res.History, GenPoint{
			Generation: res.Generations,
			SimSeconds: backend.SimTime(),
			Best:       s.best[res.Generations].Score,
		})
	}
	res.Best = s.best[res.Generations]
	if !res.DeadlineHit {
		res.Spots = slices.Clone(s.spots)
	}
	res.SimulatedSeconds = backend.SimTime()
	res.Evaluations = backend.Evaluations()
	if er, ok := backend.(energyReporter); ok {
		res.EnergyJoules = er.EnergyJoules()
	}
	if fr, ok := backend.(faultReporter); ok {
		res.DeviceFaults, res.SchedRetries, res.Resplits = fr.FaultTotals()
	}
	if wr, ok := backend.(warmupReporter); ok {
		res.WarmupFactors = wr.WarmupFactors()
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// charger is a backend whose kernel accounting a timeline drives without
// computing: the host and pool backends.
type charger interface {
	charge(kind cudasim.KernelKind, n, evals int)
	modeled() bool
}

// searchBackend is the backend a search runs on: it scores with the
// Modeled surrogate on the calling goroutine, charges no clock, and
// records every launch. The engine closes each generation's record with
// endGeneration.
type searchBackend struct {
	comp *modeledCompute
	s    *Search
	cur  launches
}

func (b *searchBackend) Name() string { return "search" }

func (b *searchBackend) ScoreBatch(confs []*conformation.Conformation) {
	b.comp.scoreBatch(confs, nil)
	b.cur.score = len(confs)
}

func (b *searchBackend) ImproveBatch(items []ImproveItem, moves int, scale conformation.MoveScale) {
	if len(items) == 0 || moves <= 0 {
		return
	}
	for _, it := range items {
		b.comp.improve(it, moves, scale, nil)
	}
	b.cur.improve, b.cur.moves = len(items), moves
}

func (b *searchBackend) HostOps(count int) { b.cur.hostOps = count }

func (b *searchBackend) SimTime() float64 { return 0 }

func (b *searchBackend) Evaluations() int64 { return 0 }

// endGeneration stores the launches since the previous call, the initial
// population's the first time, and the best conformation so far.
func (b *searchBackend) endGeneration(best conformation.Conformation) {
	if b.s.best == nil {
		b.s.initial = b.cur.score
	} else {
		b.s.gens = append(b.s.gens, b.cur)
	}
	b.s.best = append(b.s.best, best)
	b.cur = launches{}
}
