package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// This file is the library-screening layer: the drug-discovery workload
// the paper motivates ("large libraries of small molecules are explored to
// search for the structures which best bind to the receptor").

// AlgorithmFactory builds a fresh metaheuristic per run. Runs must not
// share algorithm state, so Screen takes factories.
type AlgorithmFactory func() (metaheuristic.Algorithm, error)

// BackendFactory builds a backend for a problem.
type BackendFactory func(p *Problem) (Backend, error)

// HostBackendFactory returns a BackendFactory for the host configuration.
func HostBackendFactory(cfg HostConfig) BackendFactory {
	return func(p *Problem) (Backend, error) { return NewHostBackend(p, cfg) }
}

// PoolBackendFactory returns a BackendFactory for the pool configuration.
func PoolBackendFactory(cfg PoolConfig) BackendFactory {
	return func(p *Problem) (Backend, error) { return NewPoolBackend(p, cfg) }
}

// ScreenEntry is one ligand's outcome in a library screen.
type ScreenEntry struct {
	// Ligand is the screened molecule.
	Ligand *molecule.Molecule
	// Result is the full run result.
	Result *Result
}

// ScreenResult ranks a ligand library against one receptor.
type ScreenResult struct {
	// Ranking holds one entry per ligand, best binding energy first
	// (ties broken by ligand name so the order is fully deterministic).
	Ranking []ScreenEntry
	// SimulatedSeconds is the summed modeled time of all runs: the
	// ligand jobs modeled back to back on one node. It is a workload
	// measure, deliberately independent of how many worker goroutines
	// the screen actually ran with.
	SimulatedSeconds float64
	// Evaluations is the total scoring work.
	Evaluations int64
	// DeviceFaults, SchedRetries and Resplits sum the per-ligand fault
	// counters: fault events observed, transient retries, and mid-run
	// work redistributions across all ligand jobs.
	DeviceFaults int64
	SchedRetries int64
	Resplits     int64
	// WarmupFactors holds the warm-up Percent factors reported by the
	// first ligand run that had any (every ligand of a screen uses the
	// same backend configuration, so one sample represents the screen).
	WarmupFactors map[string][]float64
}

// addRun accumulates one ligand run into the screen totals.
func (out *ScreenResult) addRun(res *Result) {
	out.SimulatedSeconds += res.SimulatedSeconds
	out.Evaluations += res.Evaluations
	out.DeviceFaults += res.DeviceFaults
	out.SchedRetries += res.SchedRetries
	out.Resplits += res.Resplits
	if out.WarmupFactors == nil && res.WarmupFactors != nil {
		out.WarmupFactors = res.WarmupFactors
	}
}

// Screen docks every ligand of a library against the receptor and returns
// the library ranked by best binding energy — the virtual-screening funnel.
// It is ScreenCtx without cancellation, with one worker per CPU.
func Screen(receptor *molecule.Molecule, library []*molecule.Molecule,
	spotOpts surface.Options, ff forcefield.Options,
	algf AlgorithmFactory, backf BackendFactory, seed uint64) (*ScreenResult, error) {
	return ScreenCtx(context.Background(), receptor, library, spotOpts, ff, algf, backf, seed, 0)
}

// ScreenCtx prepares the receptor and docks every ligand of a library with
// a bounded pool of `workers` goroutines (0 means runtime.GOMAXPROCS(0));
// see ScreenReceptorCtx. The forcefield options select nothing (see
// forcefield.Options).
func ScreenCtx(ctx context.Context, receptor *molecule.Molecule, library []*molecule.Molecule,
	spotOpts surface.Options, _ forcefield.Options,
	algf AlgorithmFactory, backf BackendFactory, seed uint64, workers int) (*ScreenResult, error) {
	rec, err := PrepareReceptor(receptor, spotOpts)
	if err != nil {
		return nil, err
	}
	return ScreenReceptorCtx(ctx, rec, library, algf, backf, seed, workers, nil, nil)
}

// ScreenReceptorCtx is the one library-screening implementation, behind
// ScreenCtx and the screening service's checkpointed screens, against a
// receptor the caller prepared — once per screen in ScreenCtx, once per
// process in the service.
// Ligands run on a bounded pool of `workers` goroutines (0 means one per
// CPU), each an independent job with its own problem, backend and seed
// lane, so the ranking is byte-identical for every worker count and
// independent of completion order. Cancelling ctx aborts in-flight ligands
// between metaheuristic generations and returns ctx's error.
//
// A nil cp is a plain screen. Otherwise ligand names must be unique
// (checkpoints key by name), ligands recorded in cp are skipped — their
// records stand in for their runs — and each newly completed ligand is
// added to cp and reported to onUpdate before that worker's next ligand
// starts; on error cp keeps everything completed so far.
func ScreenReceptorCtx(ctx context.Context, rec *PreparedReceptor, library []*molecule.Molecule,
	algf AlgorithmFactory, backf BackendFactory, seed uint64, workers int,
	cp *Checkpoint, onUpdate CheckpointFunc) (*ScreenResult, error) {
	if cp != nil {
		if cp.Ligands == nil {
			cp.Ligands = map[string]LigandRecord{}
			cp.Seed = seed
		}
		if cp.Seed != seed {
			return nil, fmt.Errorf("core: checkpoint seed %d does not match run seed %d", cp.Seed, seed)
		}
	}
	if len(library) == 0 {
		return nil, fmt.Errorf("core: empty ligand library")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var pending []int
	seen := map[string]bool{}
	for i, lig := range library {
		if cp != nil {
			if seen[lig.Name] {
				return nil, fmt.Errorf("core: duplicate ligand name %q (checkpoints key by name)", lig.Name)
			}
			seen[lig.Name] = true
			if _, done := cp.Ligands[lig.Name]; done {
				continue
			}
		}
		pending = append(pending, i)
	}

	results := make([]*Result, len(library))
	if len(pending) > 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, len(pending))
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
			cpMu     sync.Mutex
			newly    int
		)
		fail := func(err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
				cancel() // abort the other workers promptly
			}
			errMu.Unlock()
		}
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					lig := library[i]
					res, err := screenLigand(ctx, rec, lig, algf, backf, seed)
					if err != nil {
						fail(err)
						return
					}
					results[i] = res
					if cp == nil {
						continue
					}
					cpMu.Lock()
					lr := ligandRecord(lig, res)
					cp.Ligands[lig.Name] = lr
					newly++
					if onUpdate != nil {
						err = onUpdate(cp, lr, newly)
					}
					cpMu.Unlock()
					if err != nil {
						fail(fmt.Errorf("core: checkpoint update after %q: %w", lig.Name, err))
						return
					}
				}
			}()
		}
	feed:
		for _, i := range pending {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	var recs map[string]LigandRecord
	if cp != nil {
		recs = cp.Ligands
	}
	return Aggregate(library, results, recs), nil
}

// Aggregate is every screen's last step: the library's results, in
// library order so floating-point sums are deterministic, ranked by score
// then name. A ligand results leaves nil takes its record from recs, so a
// resumed screen, or one merged from records docked elsewhere, equals an
// uninterrupted one bit for bit.
func Aggregate(library []*molecule.Molecule, results []*Result, recs map[string]LigandRecord) *ScreenResult {
	out := &ScreenResult{}
	for i, lig := range library {
		var res *Result
		if i < len(results) {
			res = results[i]
		}
		if res == nil {
			res = recordResult(recs[lig.Name])
		}
		out.Ranking = append(out.Ranking, ScreenEntry{Ligand: lig, Result: res})
		out.addRun(res)
	}
	sortRanking(out)
	return out
}

// screenLigand runs one ligand job against the screen's prepared receptor,
// on its own seed lane. The lane is keyed by a stable hash of the ligand's
// name, not by library index or execution order: the parallel screen
// reproduces the sequential one exactly, and resuming a checkpointed screen
// with a reordered or extended library preserves the seeds of the
// unfinished ligands.
//
// When the context carries a trace recorder, the ligand's run gets its own
// child recorder — so concurrently screened ligands don't interleave their
// simulated device timelines — which is merged into the parent afterwards
// under the "lig:<name>/" track prefix, alongside a wall-clock ligand span.
func screenLigand(ctx context.Context, rec *PreparedReceptor, lig *molecule.Molecule,
	algf AlgorithmFactory, backf BackendFactory, seed uint64) (*Result, error) {
	problem, err := rec.newProblem(lig)
	if err != nil {
		return nil, fmt.Errorf("core: ligand %q: %w", lig.Name, err)
	}
	alg, err := algf()
	if err != nil {
		return nil, err
	}
	backend, err := backf(problem)
	if err != nil {
		return nil, err
	}

	logger := obs.FromContext(ctx).With("ligand", lig.Name)
	runCtx := obs.NewContext(ctx, logger)
	if lb, ok := backend.(interface{ SetLogger(*slog.Logger) }); ok {
		lb.SetLogger(logger)
	}
	parent := trace.FromContext(ctx)
	var child *trace.Recorder
	var startWall float64
	if parent != nil {
		child = &trace.Recorder{}
		runCtx = trace.NewContext(runCtx, child)
		if tb, ok := backend.(interface{ SetTrace(*trace.Recorder) }); ok {
			tb.SetTrace(child)
		}
		startWall = parent.Now()
	}

	res, err := RunCtx(runCtx, problem, alg, backend, ligandSeed(seed, lig.Name))
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // cancellation is not the ligand's fault
		}
		return nil, fmt.Errorf("core: ligand %q: %w", lig.Name, err)
	}
	if parent != nil {
		parent.AddSpan(trace.Span{
			Track: "ligands",
			Name:  "ligand " + lig.Name,
			Cat:   trace.CatLigand,
			Start: startWall,
			End:   parent.Now(),
			Args:  map[string]string{"ligand": lig.Name},
		})
		parent.Merge(child, "lig:"+lig.Name)
	}
	logger.Debug("ligand screened",
		"best", res.Best.Score,
		"generations", res.Generations,
		"sim_seconds", res.SimulatedSeconds,
	)
	return res, nil
}

// ligandSeed derives a ligand's seed lane from the screen seed and a
// 64-bit FNV-1a hash of the ligand's name. Keying by name (rather than the
// earlier library-index scheme) keeps a ligand's lane stable when the
// library is reordered or extended between a checkpoint and its resume.
func ligandSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, name)
	return seed + h.Sum64()*0x9e37
}

// sortRanking orders a screen's ranking best-first, breaking equal scores
// by ligand name so the ranking never depends on library order.
func sortRanking(out *ScreenResult) {
	slices.SortStableFunc(out.Ranking, func(ea, eb ScreenEntry) int {
		switch {
		case ea.Result.Best.Score < eb.Result.Best.Score:
			return -1
		case eb.Result.Best.Score < ea.Result.Best.Score:
			return 1
		}
		return strings.Compare(ea.Ligand.Name, eb.Ligand.Name)
	})
}

// SyntheticLibrary returns n deterministic synthetic ligands with varied
// drug-like sizes — the shared workload generator of cmd/vsscreen and the
// screening service, so a service screen and a library screen over "the
// same" synthetic library really dock the same molecules.
func SyntheticLibrary(n int) []*molecule.Molecule {
	lib := make([]*molecule.Molecule, n)
	for i := range lib {
		lib[i] = SyntheticLigand(i)
	}
	return lib
}

// SyntheticLigand returns the i-th ligand of SyntheticLibrary alone, for a
// screen of a few named ligands that must not pay for the whole library.
func SyntheticLigand(i int) *molecule.Molecule {
	return molecule.SyntheticLigand(SyntheticName(i), SyntheticAtoms(i), 5000+uint64(i))
}

// SyntheticName returns the name of the i-th ligand of SyntheticLibrary,
// without materializing the molecule. The distributed coordinator shards
// a library by these names and the service validates shard requests
// against them, so the naming scheme is part of the library's contract.
func SyntheticName(i int) string { return fmt.Sprintf("LIG-%03d", i) }

// SyntheticAtoms returns the atom count of the i-th ligand of
// SyntheticLibrary (18–44), the cost the distributed coordinator sizes
// chunks by.
func SyntheticAtoms(i int) int { return 18 + (i*5)%27 }
