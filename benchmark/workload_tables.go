package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/tables"
)

// tableStats is what one replayed table contributes to a pass.
type tableStats struct {
	table    *tables.Table
	seconds  float64
	dockings int
}

// dockingsPerRow is how many modeled docking runs a row replays: the OpenMP
// baseline, both computations on the heterogeneous system, and the
// homogeneous subset where the machine has one.
func dockingsPerRow(exp tables.Experiment) int {
	if len(exp.Machine.HomogeneousSubset) > 0 {
		return 4
	}
	return 3
}

// simFingerprint renders a table's simulated seconds exactly, so two replays
// can be required to agree to the bit.
func simFingerprint(t *tables.Table) string {
	s := ""
	for _, r := range t.Rows {
		s += fmt.Sprintf("%s:%x,%x,%x,%x;", r.Metaheuristic, math.Float64bits(r.OpenMP),
			math.Float64bits(r.HomogeneousSystem), math.Float64bits(r.HetHomogComputation), math.Float64bits(r.HetHetComputation))
	}
	return s
}

// tablesPass replays the given tables once through tables.Run.
func (r *run) tablesPass(numbers []int) ([]tableStats, error) {
	var out []tableStats
	for _, n := range numbers {
		exp, err := tables.ExperimentByNumber(n)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		tab, err := tables.Run(exp, tables.Config{Scale: r.cfg.Sizes.TableScale, Seed: r.cfg.Seed})
		if err != nil {
			return nil, err
		}
		out = append(out, tableStats{table: tab, seconds: time.Since(t0).Seconds(), dockings: len(tab.Rows) * dockingsPerRow(exp)})
	}
	return out, nil
}

// tablesLoop repeats passes until the measuring time is used up and returns
// each pass's wall seconds and the first pass's tables.
func (r *run) tablesLoop(ctx context.Context, seconds float64) (passSec []float64, passes [][]tableStats, err error) {
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		pass, err := r.tablesPass(r.cfg.Sizes.Tables)
		if err != nil {
			return nil, nil, err
		}
		sec := 0.0
		for _, t := range pass {
			sec += t.seconds
		}
		passSec = append(passSec, sec)
		passes = append(passes, pass)
	}
	return passSec, passes, nil
}

// checkShape applies the vstables -check assertions to a full-scale table.
// Reduced scales (the self-tests) do not keep the paper's shape and are not
// asked to.
func (r *run) checkShape(tab *tables.Table) {
	if r.cfg.Sizes.TableScale < 1 {
		return
	}
	for _, c := range tables.CheckShape(tab).Checks {
		r.check(fmt.Sprintf("table%d_%s", tab.Number, c.Name), c.Pass, "%s", c.Info)
	}
}

// runTables is tables_modeled: Modeled mode, where the scheduler, the GPU
// simulator and the metaheuristics do all the work and the force field none.
func (r *run) runTables(ctx context.Context) error {
	sz := r.cfg.Sizes
	setupS, err := measureSetup(r.setupRepeats(sz.SetupRepeatsInProc), func() error {
		// Inputs are the two synthetic datasets; the warm-up replays one
		// cheap row so the first timed pass does not pay for cold code.
		core.Dataset2BSM()
		core.Dataset2BXG()
		exp, err := tables.ExperimentByNumber(sz.Tables[0])
		if err != nil {
			return err
		}
		_, err = tables.RunRow(exp, "M3", tables.Config{Scale: sz.TableScale, Seed: r.cfg.Seed})
		return err
	}, func() {})
	if err != nil {
		return err
	}

	if !r.cfg.Traced {
		passSec, passes, err := r.tablesLoop(ctx, r.cfg.Seconds)
		if err != nil {
			return err
		}
		dockings := 0
		for i, t := range passes[0] {
			dockings += t.dockings
			r.checkShape(t.table)
			r.exact(fmt.Sprintf("sim_table%d", t.table.Number), simFingerprint(t.table))
			for p := 1; p < len(passes); p++ {
				same := simFingerprint(passes[p][i].table) == simFingerprint(t.table)
				r.check(fmt.Sprintf("table%d_pass%d_sim_identical", t.table.Number, p), same, "simulated seconds vs pass 0")
			}
		}
		r.res.Attempted = dockings * len(passes)
		passMs := make([]float64, len(passSec))
		rates := make([]float64, len(passSec))
		for i, s := range passSec {
			passMs[i], rates[i] = s*1e3, float64(dockings)/s
		}
		r.metrics.set(mSetup, setupS)
		r.metrics.set(mLigandsPS, median(rates))
		r.metrics.set(mLatencyP50, r.timing("pass_ms", passMs).Median)
		return nil
	}

	// Traced run: a shortened untraced reference, then every row of every
	// table on its own through tables.RunRow with a span around it.
	refRate := 0.0
	if ref := r.cfg.Reference; ref != nil {
		refRate = ref.Metrics[mLigandsPS].Value
	} else {
		passSec, passes, err := r.tablesLoop(ctx, r.cfg.Seconds/2)
		if err != nil {
			return err
		}
		d := 0
		for _, t := range passes[0] {
			d += t.dockings
		}
		refRate = float64(d) / median(passSec)
	}

	gated := map[int]bool{}
	for _, n := range sz.Tables {
		gated[n] = true
	}
	var rowSec []float64
	replayS, gatedSec, simHet := 0.0, 0.0, 0.0
	gatedDockings := 0
	minGain := map[string]float64{}
	for _, n := range sz.TracedTables {
		exp, err := tables.ExperimentByNumber(n)
		if err != nil {
			return err
		}
		tab := &tables.Table{Number: exp.Number, Machine: exp.Machine, Dataset: exp.Dataset}
		tspan := r.rec.begin("tables", fmt.Sprintf("table %d", n), "table-"+strconv.Itoa(n), 0)
		for _, mh := range metaheuristic.PaperNames() {
			if err := ctx.Err(); err != nil {
				return err
			}
			span := r.rec.begin("tables", "RunRow "+mh, "table-"+strconv.Itoa(n), tspan)
			t0 := time.Now()
			row, err := tables.RunRow(exp, mh, tables.Config{Scale: sz.TableScale, Seed: r.cfg.Seed})
			sec := time.Since(t0).Seconds()
			r.rec.end(span)
			if err != nil {
				return err
			}
			tab.Rows = append(tab.Rows, row)
			rowSec = append(rowSec, sec)
			replayS += sec
			simHet += row.HetHetComputation
			if g, ok := minGain[exp.Machine.Name]; !ok || row.SpeedupHetVsHomog() < g {
				minGain[exp.Machine.Name] = row.SpeedupHetVsHomog()
			}
			if gated[n] {
				gatedSec += sec
				gatedDockings += dockingsPerRow(exp)
			}
			r.res.Attempted += dockingsPerRow(exp)
		}
		r.rec.end(tspan)
		r.checkShape(tab)
		r.exact(fmt.Sprintf("sim_table%d", n), simFingerprint(tab))
		if ref := r.cfg.Reference; ref != nil {
			if want, ok := ref.Exact[fmt.Sprintf("sim_table%d", n)]; ok {
				r.check(fmt.Sprintf("table%d_traced_equals_untraced", n), want == simFingerprint(tab), "simulated seconds of both runs")
			}
		}
	}
	r.timing("row_s", rowSec)
	r.metrics.set("tables.replay_s", replayS)
	r.metrics.set("tables.row_s_max", sortedCopy(rowSec)[len(rowSec)-1])
	r.metrics.set("sched.sim_het_s", simHet)
	r.metrics.set("sched.speedup_het_min_hertz", minGain["Hertz"])
	r.metrics.set("sched.speedup_het_min_jupiter", minGain["Jupiter"])
	if gatedSec > 0 {
		r.metrics.set("harness.trace_overhead_pct", (refRate-float64(gatedDockings)/gatedSec)/refRate*100)
	}

	// The same Jupiter tables at half scale, where the heterogeneous split
	// dips below 1: the BENCH_9 anomaly, recorded here, not fixed.
	half := math.Inf(1)
	for _, n := range sz.TracedTables {
		exp, err := tables.ExperimentByNumber(n)
		if err != nil {
			return err
		}
		if exp.Machine.Name != "Jupiter" {
			continue
		}
		span := r.rec.begin("tables", fmt.Sprintf("table %d at half scale", n), "", 0)
		tab, err := tables.Run(exp, tables.Config{Scale: sz.TableScale * 0.5, Seed: r.cfg.Seed})
		r.rec.end(span)
		if err != nil {
			return err
		}
		for _, row := range tab.Rows {
			half = math.Min(half, row.SpeedupHetVsHomog())
		}
	}
	if !math.IsInf(half, 1) {
		r.metrics.set("sched.speedup_het_min_jupiter_half", half)
	}
	return r.probePool()
}

// probePool replays one Hertz heterogeneous row (2BSM, M1) on a pool backend
// the benchmark builds itself, so it can read the simulator's devices
// afterwards: launches, host cost per launch, warm-up factor, idle share.
func (r *run) probePool() error {
	span := r.rec.begin("cudasim", "pool row replay", "", 0)
	defer r.rec.end(span)
	p, err := core.NewProblemFromDataset(core.Dataset2BSM(), forcefield.Options{})
	if err != nil {
		return err
	}
	alg, err := metaheuristic.NewPaper("M1", r.cfg.Sizes.TableScale)
	if err != nil {
		return err
	}
	pb, err := core.NewPoolBackend(p, core.PoolConfig{Specs: tables.Hertz().GPUs, Mode: sched.Heterogeneous, Seed: r.cfg.Seed})
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := core.RunCtx(context.Background(), p, alg, pb, r.cfg.Seed)
	hostSec := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	kernels, minBusy := 0, math.Inf(1)
	for _, d := range pb.Pool().Context().Devices() {
		kernels += d.Kernels()
		minBusy = math.Min(minBusy, d.BusyTime())
	}
	r.metrics.set("cudasim.kernels_launched", float64(kernels))
	r.exact("cudasim_kernels_launched", strconv.Itoa(kernels))
	if kernels > 0 {
		r.metrics.set("cudasim.host_us_per_launch", hostSec*1e6/float64(kernels))
	}
	if res.SimulatedSeconds > 0 {
		r.metrics.set("sched.device_idle_share_het", 1-minBusy/res.SimulatedSeconds)
	}
	if f := pb.WarmupFactors()[cudasim.KernelScoring.String()]; len(f) > 0 {
		r.metrics.set("sched.warmup_percent_k40c", f[0])
	}
	return nil
}
