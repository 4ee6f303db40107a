package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// SpotResult is the outcome at one surface spot.
type SpotResult struct {
	// Spot is the region.
	Spot surface.Spot
	// Best is the best conformation found there.
	Best conformation.Conformation
}

// Result is the outcome of one screening run.
type Result struct {
	// Algorithm names the metaheuristic.
	Algorithm string
	// Backend names the compute configuration.
	Backend string
	// Spots holds the per-spot outcomes in spot order.
	Spots []SpotResult
	// Best is the overall best conformation (the paper: "the final
	// solution is chosen from all independent executions").
	Best conformation.Conformation
	// SimulatedSeconds is the modeled execution time, the quantity the
	// paper's Tables 6-9 report.
	SimulatedSeconds float64
	// WallSeconds is the real time the run took.
	WallSeconds float64
	// Evaluations counts scoring-function evaluations (performed or
	// modeled).
	Evaluations int64
	// Generations is the number of template iterations executed.
	Generations int
	// EnergyJoules is the modeled energy of the run (0 when the backend
	// does not model energy).
	EnergyJoules float64
	// History records convergence: one point per generation.
	History []GenPoint
	// DeadlineHit reports whether a time-budgeted run stopped at its
	// budget rather than at the metaheuristic's own End condition.
	DeadlineHit bool
	// DeviceFaults counts device fault events (transient, permanent,
	// hang) absorbed or detected during the run.
	DeviceFaults int64
	// SchedRetries counts transient-fault operation retries.
	SchedRetries int64
	// Resplits counts mid-run redistributions of a dead device's work.
	Resplits int64
	// WarmupFactors holds the warm-up Percent factors (equation 1 of the
	// paper) per kernel kind, when the backend ran a heterogeneous
	// warm-up; nil otherwise. Exposed through the service's debug
	// snapshot.
	WarmupFactors map[string][]float64
}

// GenPoint is one generation's convergence sample.
type GenPoint struct {
	// Generation is the 1-based generation index.
	Generation int
	// SimSeconds is the simulated time when the generation completed.
	SimSeconds float64
	// Best is the best score found so far across all spots.
	Best float64
}

// improveTarget names one conformation selected for local search: spot
// index and conformation index within that spot's offspring.
type improveTarget struct {
	spot, conf int
}

// energyReporter is implemented by backends that model energy.
type energyReporter interface {
	EnergyJoules() float64
}

// errReporter is implemented by backends that can fail unrecoverably
// (e.g. every simulated device lost); the engine checks it each
// generation and aborts the run when it reports an error.
type errReporter interface {
	Err() error
}

// faultReporter is implemented by backends that track device faults and
// recovery actions.
type faultReporter interface {
	FaultTotals() (faults, retries, resplits int64)
}

// warmupReporter is implemented by backends that run the paper's warm-up
// phase and can report the measured Percent factors per kernel kind.
type warmupReporter interface {
	WarmupFactors() map[string][]float64
}

// backendErr returns the backend's latched failure, if any.
func backendErr(backend Backend) error {
	if er, ok := backend.(errReporter); ok {
		return er.Err()
	}
	return nil
}

// Run executes one virtual-screening run: the metaheuristic optimizes all
// of the problem's spots simultaneously, with per-generation evaluation
// batched onto the backend. The same seed, problem, algorithm and backend
// configuration always produce the same result.
func Run(p *Problem, alg metaheuristic.Algorithm, backend Backend, seed uint64) (*Result, error) {
	return run(context.Background(), p, alg, backend, seed, 0, 0)
}

// RunCtx is Run with cancellation: the run checks ctx between generations
// and returns ctx's error as soon as it is cancelled or its deadline
// passes, so long screening runs abort promptly. A cancelled run returns
// no partial Result.
func RunCtx(ctx context.Context, p *Problem, alg metaheuristic.Algorithm, backend Backend, seed uint64) (*Result, error) {
	return run(ctx, p, alg, backend, seed, 0, 0)
}

// RunBudget executes a run under a simulated-time deadline (the paper:
// "stochastic behaviors where real-time constraints must be fulfilled"):
// the run ends at the metaheuristic's End condition or as soon as the
// backend's simulated clock passes budgetSeconds, whichever comes first.
// Faster scheduling therefore buys more generations — and better
// solutions — within the same deadline.
func RunBudget(p *Problem, alg metaheuristic.Algorithm, backend Backend, seed uint64, budgetSeconds float64) (*Result, error) {
	return RunBudgetCtx(context.Background(), p, alg, backend, seed, budgetSeconds)
}

// RunBudgetCtx is RunBudget with cancellation; the simulated-time budget
// and ctx's real-time deadline are independent stop conditions.
func RunBudgetCtx(ctx context.Context, p *Problem, alg metaheuristic.Algorithm, backend Backend, seed uint64, budgetSeconds float64) (*Result, error) {
	if budgetSeconds <= 0 {
		return nil, fmt.Errorf("core: budget %g seconds", budgetSeconds)
	}
	return run(ctx, p, alg, backend, seed, budgetSeconds, 0)
}

// run is the engine. p's spots are spots first, first+1, ... of the
// problem the seed's streams are drawn for: spot first+i draws from lanes
// first+i and 1_000_000+first+i, so a search over a range of spots
// (RunSearchSpots) makes the same draws as the whole search does there.
func run(ctx context.Context, p *Problem, alg metaheuristic.Algorithm, backend Backend, seed uint64, budget float64, first int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(p.Spots) == 0 {
		return nil, fmt.Errorf("core: problem has no spots")
	}
	if err := alg.Params().Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	rec := trace.FromContext(ctx)
	logger := obs.FromContext(ctx)
	root := rng.New(seed)
	ligandRadius := p.LigandRadius()

	// Per-spot state with order-independent random streams.
	states := make([]*metaheuristic.SpotState, len(p.Spots))
	samplers := make([]*conformation.Sampler, len(p.Spots))
	improveRNGs := make([]*rng.Source, len(p.Spots))
	for i, s := range p.Spots {
		samplers[i] = conformation.NewSampler(s, ligandRadius)
		ctx := &metaheuristic.SpotContext{
			Spot:    s,
			Sampler: samplers[i],
			RNG:     root.Split(uint64(first + i)),
		}
		states[i] = alg.NewSpotState(ctx)
		improveRNGs[i] = root.Split(1_000_000 + uint64(first+i))
	}

	// Initialize: seed and evaluate the initial populations in one batch.
	seeds := make([]metaheuristic.Population, len(states))
	var batch []*conformation.Conformation
	for i, st := range states {
		seeds[i] = st.Seed()
		for j := range seeds[i] {
			batch = append(batch, &seeds[i][j])
		}
	}
	backend.ScoreBatch(batch)
	if err := backendErr(backend); err != nil {
		return nil, fmt.Errorf("core: backend failed during initialization: %w", err)
	}
	for i, st := range states {
		st.Begin(seeds[i])
	}

	params := alg.Params()
	scale := params.MoveScale
	if scale == (conformation.MoveScale{}) {
		scale = conformation.DefaultMoveScale
	}

	// bestSoFar tracks convergence across generations.
	bestSoFar := func() conformation.Conformation {
		best := conformation.Conformation{Score: conformation.Unscored}
		for _, st := range states {
			if b := st.Best(); b.Better(best) {
				best = b
			}
		}
		return best
	}
	sr, recording := backend.(*searchBackend)
	if recording {
		sr.endGeneration(bestSoFar())
	}

	var history []GenPoint
	deadlineHit := false
	gens := 0
	// Per-generation work lists, allocated once and reused: steady-state
	// generations must not allocate on the host side.
	scoms := make([]metaheuristic.Population, len(states))
	var (
		toScore  []*conformation.Conformation
		items    []ImproveItem
		itemRNGs []rng.Source
		targets  []improveTarget
	)
	for gen := 0; !states[0].Done(gen); gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if budget > 0 && backend.SimTime() >= budget {
			deadlineHit = true
			break
		}
		gens++
		genStart := backend.SimTime()
		// Select + Combine on the host, per spot.
		toScore = toScore[:0]
		popTotal := 0
		for i, st := range states {
			scoms[i] = st.Propose()
			popTotal += len(scoms[i])
			for j := range scoms[i] {
				if !scoms[i][j].Evaluated() {
					toScore = append(toScore, &scoms[i][j])
				}
			}
		}
		// Scoring kernel over all spots' offspring.
		backend.ScoreBatch(toScore)

		// Improve kernel over the selected fraction.
		if params.ImproveMoves > 0 {
			targets = targets[:0]
			for i, st := range states {
				for _, ti := range st.ImproveTargets(scoms[i]) {
					targets = append(targets, improveTarget{spot: i, conf: ti})
				}
			}
			// The items hold pointers into itemRNGs, so size it up front
			// (growing it mid-build would strand pointers in the old
			// backing array).
			if cap(itemRNGs) < len(targets) {
				itemRNGs = make([]rng.Source, len(targets))
			}
			itemRNGs = itemRNGs[:len(targets)]
			items = items[:0]
			for k, tg := range targets {
				// Stream per (generation, conformation): local search is
				// reproducible under any parallel order.
				improveRNGs[tg.spot].SplitInto(uint64(gen)<<20|uint64(tg.conf), &itemRNGs[k])
				items = append(items, ImproveItem{
					Conf:    &scoms[tg.spot][tg.conf],
					Sampler: samplers[tg.spot],
					RNG:     &itemRNGs[k],
				})
			}
			backend.ImproveBatch(items, params.ImproveMoves, scale)
		}

		// Include on the host, per spot.
		for i, st := range states {
			st.Integrate(scoms[i])
		}
		backend.HostOps(popTotal)
		if err := backendErr(backend); err != nil {
			return nil, fmt.Errorf("core: backend failed at generation %d: %w", gens, err)
		}
		best := bestSoFar()
		if recording {
			sr.endGeneration(best)
		}
		history = append(history, GenPoint{
			Generation: gens,
			SimSeconds: backend.SimTime(),
			Best:       best.Score,
		})
		if rec != nil {
			rec.AddSpan(trace.Span{
				Track: "generations",
				Name:  "generation " + strconv.Itoa(gens),
				Cat:   trace.CatGeneration,
				Clock: trace.ClockSim,
				Start: genStart,
				End:   backend.SimTime(),
				Args:  map[string]string{"generation": strconv.Itoa(gens)},
			})
		}
	}

	// Gather results; the overall best is the winner across spots.
	res := &Result{
		Algorithm:        alg.Name(),
		Backend:          backend.Name(),
		SimulatedSeconds: backend.SimTime(),
		Evaluations:      backend.Evaluations(),
		Generations:      gens,
		History:          history,
		DeadlineHit:      deadlineHit,
		Best:             conformation.Conformation{Score: conformation.Unscored},
	}
	for i, st := range states {
		best := st.Best()
		res.Spots = append(res.Spots, SpotResult{Spot: p.Spots[i], Best: best})
		if best.Better(res.Best) {
			res.Best = best
		}
	}
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
	logger.Debug("run finished",
		"algorithm", res.Algorithm,
		"backend", res.Backend,
		"generations", res.Generations,
		"sim_seconds", res.SimulatedSeconds,
		"best", res.Best.Score,
		"deadline_hit", res.DeadlineHit,
	)
	return res, nil
}
