package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// screenInputs is what set-up produces for the in-process screen workloads.
type screenInputs struct {
	receptor *molecule.Molecule
	library  []*molecule.Molecule
	mh       string
	scale    float64
	spots    int
	workers  int
}

// hostFactory is the backend factory the service hands the engine, so the
// in-process workloads measure the path a served job takes.
func hostFactory() core.BackendFactory {
	return core.HostBackendFactory(core.HostConfig{Real: true})
}

// screen runs one unit: one core.ScreenCtx call over the whole library.
func (in screenInputs) screen(ctx context.Context, lib []*molecule.Molecule, scale float64, seed uint64, backf core.BackendFactory, workers int) (*core.ScreenResult, float64, error) {
	algf := func() (metaheuristic.Algorithm, error) { return metaheuristic.NewPaper(in.mh, scale) }
	t0 := time.Now()
	res, err := core.ScreenCtx(ctx, in.receptor, lib, surface.Options{MaxSpots: in.spots},
		forcefield.Options{}, algf, backf, seed, workers)
	return res, time.Since(t0).Seconds(), err
}

// screenUnit is one measured unit's outcome.
type screenUnit struct {
	seconds float64
	evals   int64
	entries []service.RankEntry
}

// screenLoop repeats units until the measuring time is used up. Unit u runs
// at seed+u; the ligands and the work per unit are identical, so per-unit
// rates are samples of one quantity and their median is robust against a
// one-off stall.
func (r *run) screenLoop(ctx context.Context, in screenInputs, seconds float64, rec *recorder, agg *backendTimes) ([]screenUnit, error) {
	var units []screenUnit
	start := time.Now()
	for u := 0; len(units) == 0 || time.Since(start).Seconds() < seconds; u++ {
		job := "unit-" + strconv.Itoa(u)
		backf := hostFactory()
		span := rec.begin("core", "ScreenCtx", job, 0)
		if rec != nil {
			backf = timedFactory(backf, rec, agg, job, span)
		}
		res, secs, err := in.screen(ctx, in.library, in.scale, r.cfg.Seed+uint64(u), backf, in.workers)
		rec.end(span)
		if err != nil {
			return nil, err
		}
		if agg != nil {
			agg.closeLigands()
		}
		units = append(units, screenUnit{seconds: secs, evals: res.Evaluations, entries: entriesOf(res)})
	}
	return units, nil
}

// runScreen is screen_m1 and screen_m4: the engine, the metaheuristic and
// the force field with no service around them.
func (r *run) runScreen(ctx context.Context) error {
	sz := r.cfg.Sizes
	in := screenInputs{mh: "M1", scale: sz.M1Scale, spots: sz.ScreenSpots, workers: sz.ScreenWorkers}
	if r.cfg.Workload == wlScreenM4 {
		in.mh, in.scale = "M4", sz.M4Scale
	}

	setupS, err := measureSetup(r.setupRepeats(sz.SetupRepeatsInProc), func() error {
		in.receptor = core.Dataset2BSM().Receptor
		in.library = core.SyntheticLibrary(sz.ScreenLibrary)
		// Warm-up: a short screen of the same shape faults in code and
		// grows the heap before anything is timed.
		_, _, err := in.screen(ctx, in.library[:min(2, len(in.library))], in.scale*0.4, r.cfg.Seed, hostFactory(), in.workers)
		return err
	}, func() {})
	if err != nil {
		return err
	}

	refRate := 0.0
	if r.cfg.Traced {
		if ref := r.cfg.Reference; ref != nil {
			refRate = ref.Metrics[mLigandsPS].Value
		} else {
			units, err := r.screenLoop(ctx, in, r.cfg.Seconds/2, nil, nil)
			if err != nil {
				return err
			}
			refRate = medianRate(units, len(in.library))
		}
	}

	var agg *backendTimes
	var heap *heapSampler
	if r.cfg.Traced {
		agg = &backendTimes{}
		heap = startHeapSampler()
	}
	units, err := r.screenLoop(ctx, in, r.cfg.Seconds, r.rec, agg)
	if err != nil {
		return err
	}
	peakHeapMB := heap.stop()

	names := libraryNames(in.library)
	var unitMs []float64
	totalSec, totalEvals := 0.0, int64(0)
	for u, unit := range units {
		r.res.Attempted += len(in.library)
		if problem := rankingProblem(unit.entries, names); problem != "" {
			r.res.Failed += len(in.library)
			r.check(fmt.Sprintf("ranking_unit%d", u), false, "%s", problem)
		}
		unitMs = append(unitMs, unit.seconds*1e3)
		totalSec += unit.seconds
		totalEvals += unit.evals
	}
	r.check("rankings_complete_sorted_finite", r.res.Failed == 0, "%d units of %d ligands", len(units), len(in.library))
	r.exact("ranking_digest_unit0", digest(units[0].entries))
	r.exact("evals_unit0", strconv.FormatInt(units[0].evals, 10))
	if ref := r.cfg.Reference; ref != nil {
		for _, k := range []string{"ranking_digest_unit0", "evals_unit0"} {
			r.check("traced_equals_untraced_"+k, ref.Exact[k] == r.res.Exact[k], "untraced %s, traced %s", ref.Exact[k], r.res.Exact[k])
		}
	}
	if err := r.checkUnbatchedPath(ctx, in, units[0]); err != nil {
		return err
	}

	rate := medianRate(units, len(in.library))
	lat := r.timing("unit_ms", unitMs)
	if !r.cfg.Traced {
		r.metrics.set(mSetup, setupS)
		r.metrics.set(mLigandsPS, rate)
		r.metrics.set(mLatencyP50, lat.Median)
		return nil
	}

	r.metrics.set("harness.trace_overhead_pct", (refRate-rate)/refRate*100)
	r.metrics.set("core.evals_per_s", float64(totalEvals)/totalSec)
	r.metrics.set("core.evals_total", float64(units[0].evals))
	r.metrics.set("core.peak_heap_mb", peakHeapMB)
	if busy := float64(agg.ligandNs.Load()); busy > 0 {
		score, improve := float64(agg.scoreNs.Load()), float64(agg.improveNs.Load())
		r.metrics.set("core.score_batch_share", score/busy)
		r.metrics.set("core.improve_batch_share", improve/busy)
		r.metrics.set("core.engine_self_share", 1-(score+improve+float64(agg.buildNs.Load()))/busy)
	}
	if err := r.probeForcefield(in.receptor, in.library, in.spots); err != nil {
		return err
	}
	// The traced screen's own factory timings replace the probe's estimate.
	if n := agg.builds.Load(); n > 0 {
		r.metrics.set("core.backend_build_ms", float64(agg.buildNs.Load())/float64(n)/1e6)
	}
	if err := r.probeMetaheuristic(in.receptor, in.library[0], in.spots); err != nil {
		return err
	}
	return r.probeSlices(ctx, in)
}

// medianRate is the median over units of ligands per second.
func medianRate(units []screenUnit, ligands int) float64 {
	rates := make([]float64, len(units))
	for i, u := range units {
		rates[i] = float64(ligands) / u.seconds
	}
	return median(rates)
}

// checkUnbatchedPath recomputes the library's smallest ligand alone, single
// threaded, through the one-pose-at-a-time scoring path and requires the
// score bits unit 0 reported: an independent route to the same answer.
func (r *run) checkUnbatchedPath(ctx context.Context, in screenInputs, unit0 screenUnit) error {
	smallest := in.library[0]
	for _, m := range in.library {
		if m.NumAtoms() < smallest.NumAtoms() {
			smallest = m
		}
	}
	backf := core.HostBackendFactory(core.HostConfig{Real: true, DisableBatch: true, Workers: 1})
	res, _, err := in.screen(ctx, []*molecule.Molecule{smallest}, in.scale, r.cfg.Seed, backf, 1)
	if err != nil {
		return err
	}
	got := entriesOf(res)[0]
	for _, e := range unit0.entries {
		if e.Ligand == got.Ligand {
			r.check("unbatched_single_thread_path_agrees", sameEntry(e, got),
				"%s: screen %v (spot %d), reference %v (spot %d)", e.Ligand, e.Score, e.Spot, got.Score, got.Spot)
			return nil
		}
	}
	r.check("unbatched_single_thread_path_agrees", false, "%s missing from unit 0", got.Ligand)
	return nil
}

// probeSlices runs the short screens behind core.parallel_efficiency and
// trace.recorder_overhead_pct: a slice of the library at a reduced scale.
func (r *run) probeSlices(ctx context.Context, in screenInputs) error {
	span := r.rec.begin("core", "slice probes", "", 0)
	defer r.rec.end(span)
	sz := r.cfg.Sizes
	lib := in.library[:min(sz.SliceLibrary, len(in.library))]
	scale := in.scale * sz.SliceScaleFactor

	// The baseline is plainly single threaded: one ligand worker and a
	// one-thread backend team. The measured configuration is the
	// workload's own.
	single := core.HostBackendFactory(core.HostConfig{Real: true, Workers: 1})
	_, oneSec, err := in.screen(ctx, lib, scale, r.cfg.Seed, single, 1)
	if err != nil {
		return err
	}
	_, twoSec, err := in.screen(ctx, lib, scale, r.cfg.Seed, hostFactory(), in.workers)
	if err != nil {
		return err
	}
	r.metrics.set("core.parallel_efficiency", oneSec/(float64(in.workers)*twoSec))

	// The same slice with the program's own span recorder in the context.
	_, withSec, err := in.screen(trace.NewContext(ctx, &trace.Recorder{}), lib, scale, r.cfg.Seed, hostFactory(), in.workers)
	if err != nil {
		return err
	}
	_, againSec, err := in.screen(ctx, lib, scale, r.cfg.Seed, hostFactory(), in.workers)
	if err != nil {
		return err
	}
	without := math.Min(twoSec, againSec)
	r.metrics.set("trace.recorder_overhead_pct", (withSec-without)/without*100)
	return nil
}

// heapSampler tracks the heap's high-water mark while a traced screen runs.
// Reading memory statistics briefly stops the world, which is why only the
// traced run does it.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			s.peak = max(s.peak, ms.HeapAlloc)
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB (0 for a nil sampler).
func (s *heapSampler) stop() float64 {
	if s == nil {
		return 0
	}
	close(s.stopCh)
	s.wg.Wait()
	return float64(s.peak) / (1 << 20)
}
