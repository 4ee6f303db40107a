// Command vsrun executes one real (force-field-evaluated) virtual-screening
// run and reports the best poses found per surface spot.
//
// Usage:
//
//	vsrun -dataset 2BSM -mh M3 -mh-scale 0.05
//	vsrun -receptor rec.pdb -ligand lig.pdb -spots 16 -mh M2
//	vsrun -dataset 2BSM -backend pool -machine Hertz -mode heterogeneous
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/report"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/tables"
	"github.com/metascreen/metascreen/internal/trace"
)

func main() {
	dataset := flag.String("dataset", "", "benchmark dataset (2BSM or 2BXG)")
	receptorPath := flag.String("receptor", "", "receptor PDB file (alternative to -dataset)")
	ligandPath := flag.String("ligand", "", "ligand PDB file (alternative to -dataset)")
	mh := flag.String("mh", "M3", "metaheuristic: M1..M4 (the paper's Table 4)")
	mhScale := flag.Float64("mh-scale", 0.05, "budget scale in (0, 1] for the metaheuristic (full scale is hours of real compute)")
	spots := flag.Int("spots", 0, "number of surface spots (0 = receptorAtoms/100)")
	backendKind := flag.String("backend", "host", "backend: host or pool")
	machine := flag.String("machine", "Hertz", "pool backend: platform (Jupiter or Hertz)")
	mode := flag.String("mode", "heterogeneous", "pool backend: homogeneous, heterogeneous or dynamic")
	seed := flag.Uint64("seed", 42, "random seed")
	top := flag.Int("top", 5, "number of best spots to print")
	gantt := flag.Bool("gantt", false, "pool backend: print a device timeline chart after the run")
	faults := flag.String("faults", "", `pool backend: inject device faults, e.g. "dev1:fail@0.5,dev0:throttle@0.2x" (fail@T / hang@T in simulated seconds, transient@RATE, throttle@Fx)`)
	budget := flag.Float64("budget", 0, "simulated-time deadline in seconds (0 = run to the End condition)")
	historyPath := flag.String("history", "", "write the convergence history (generation, sim time, best) to this CSV file")
	traceOut := flag.String("trace-out", "", "write the run's span timeline as Chrome trace format to this file (load in Perfetto)")
	logLevel := flag.String("log-level", "warn", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()
	if err := checkFlags(*mh, *spots, *top, *mhScale, *budget); err != nil {
		fatal(err)
	}

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fatal(err)
	}
	ctx := obs.NewContext(context.Background(), logger)

	rec, lig, err := loadMolecules(*dataset, *receptorPath, *ligandPath)
	if err != nil {
		fatal(err)
	}
	problem, err := core.NewProblem(rec, lig, surface.Options{MaxSpots: *spots}, forcefield.Options{})
	if err != nil {
		fatal(err)
	}

	alg, err := metaheuristic.NewPaper(*mh, *mhScale)
	if err != nil {
		fatal(err)
	}

	var recorder *trace.Recorder
	if *traceOut != "" || (*gantt && *backendKind == "pool") {
		recorder = &trace.Recorder{}
		ctx = trace.NewContext(ctx, recorder)
	}
	backend, err := pickBackend(problem, *backendKind, *machine, *mode, *seed, *faults, recorder)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("screening %s (%d atoms) vs %s (%d atoms): %d spots, %s on %s\n",
		rec.Name, rec.NumAtoms(), lig.Name, lig.NumAtoms(),
		len(problem.Spots), alg.Name(), backend.Name())

	var res *core.Result
	if *budget > 0 {
		res, err = core.RunBudgetCtx(ctx, problem, alg, backend, *seed, *budget)
		if err != nil {
			fatal(err)
		}
		if res.DeadlineHit {
			fmt.Printf("deadline of %.3fs (simulated) reached after %d generations\n",
				*budget, res.Generations)
		}
	} else {
		res, err = core.RunCtx(ctx, problem, alg, backend, *seed)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("done: %d generations, %d evaluations, %.2fs wall",
		res.Generations, res.Evaluations, res.WallSeconds)
	if res.SimulatedSeconds > 0 {
		fmt.Printf(", %.4fs simulated", res.SimulatedSeconds)
	}
	fmt.Println()
	if res.DeviceFaults > 0 || res.Resplits > 0 {
		fmt.Printf("fault recovery: %d device faults, %d retries, %d re-splits — run completed\n",
			res.DeviceFaults, res.SchedRetries, res.Resplits)
	}

	ranked := append([]core.SpotResult(nil), res.Spots...)
	sort.Slice(ranked, func(i, j int) bool {
		return ranked[i].Best.Score < ranked[j].Best.Score
	})
	n := *top
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Printf("best %d spots:\n", n)
	for i := 0; i < n; i++ {
		sr := ranked[i]
		fmt.Printf("  spot %2d  score %10.3f kcal/mol  center %v  pose %v\n",
			sr.Spot.ID, sr.Best.Score, sr.Spot.Center, sr.Best.Translation)
	}
	fmt.Printf("overall best: spot %d, %.3f kcal/mol\n", res.Best.Spot, res.Best.Score)

	if res.EnergyJoules > 0 {
		fmt.Printf("modeled energy: %.1f J\n", res.EnergyJoules)
	}

	if *historyPath != "" {
		f, err := os.Create(*historyPath)
		if err != nil {
			fatal(err)
		}
		werr := report.HistoryCSV(f, res)
		cerr := f.Close()
		if werr != nil {
			fatal(werr)
		}
		if cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("convergence history written to %s\n", *historyPath)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		werr := recorder.WriteChrome(f)
		cerr := f.Close()
		if werr != nil {
			fatal(werr)
		}
		if cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("trace written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}

	if *gantt && *backendKind == "pool" {
		if err := writeTimeline(os.Stdout, recorder); err != nil {
			fatal(err)
		}
	}
}

// writeTimeline prints the pool's device timeline chart and the
// utilization of each device on it, labelled by device index.
func writeTimeline(w io.Writer, r *trace.Recorder) error {
	fmt.Fprintln(w, "\ndevice timeline (w=warmup, s=scoring, i=improve, h/d=transfers):")
	if err := r.WriteGantt(w, 100); err != nil {
		return err
	}
	for _, u := range r.Utilization() {
		if _, err := fmt.Fprintf(w, "  device %d utilization: %.0f%%\n", u.Device, 100*u.Fraction); err != nil {
			return err
		}
	}
	return nil
}

// checkFlags rejects flag values that a run would otherwise ignore or
// misread, before any work starts.
func checkFlags(mh string, spots, top int, mhScale, budget float64) error {
	switch {
	case !slices.Contains(metaheuristic.PaperNames(), mh):
		return fmt.Errorf("-mh %q: want one of %s", mh, strings.Join(metaheuristic.PaperNames(), ", "))
	case spots < 0:
		return fmt.Errorf("-spots %d: want 0 (receptorAtoms/100) or more", spots)
	case top < 0:
		return fmt.Errorf("-top %d: want 0 or more", top)
	case !(mhScale > 0 && mhScale <= 1):
		return fmt.Errorf("-mh-scale %g: want a number in (0, 1]", mhScale)
	case !(budget >= 0) || math.IsInf(budget, 1):
		return fmt.Errorf("-budget %g: want a finite number of seconds, 0 for none", budget)
	}
	return nil
}

func loadMolecules(dataset, receptorPath, ligandPath string) (*molecule.Molecule, *molecule.Molecule, error) {
	if dataset != "" {
		ds, err := core.DatasetByName(dataset)
		if err != nil {
			return nil, nil, err
		}
		return ds.Receptor, ds.Ligand, nil
	}
	if receptorPath == "" || ligandPath == "" {
		return nil, nil, fmt.Errorf("need -dataset, or both -receptor and -ligand")
	}
	rec, err := readPDB(receptorPath)
	if err != nil {
		return nil, nil, err
	}
	lig, err := readPDB(ligandPath)
	if err != nil {
		return nil, nil, err
	}
	return rec, lig, nil
}

func readPDB(path string) (*molecule.Molecule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return molecule.ReadPDB(f)
}

func pickBackend(p *core.Problem, kind, machineName, modeName string, seed uint64, faultSpec string, rec *trace.Recorder) (core.Backend, error) {
	switch kind {
	case "host":
		if faultSpec != "" {
			return nil, fmt.Errorf("-faults requires -backend pool (the host backend has no devices)")
		}
		return core.NewHostBackend(p, core.HostConfig{Real: true})
	case "pool":
		m, err := tables.MachineByName(machineName)
		if err != nil {
			return nil, err
		}
		var mode sched.Mode
		switch modeName {
		case "homogeneous":
			mode = sched.Homogeneous
		case "heterogeneous":
			mode = sched.Heterogeneous
		case "dynamic":
			mode = sched.Dynamic
		default:
			return nil, fmt.Errorf("unknown mode %q", modeName)
		}
		plans, err := parseFaults(faultSpec, len(m.GPUs), seed)
		if err != nil {
			return nil, err
		}
		return core.NewPoolBackend(p, core.PoolConfig{
			Real:   true,
			Specs:  m.GPUs,
			Mode:   mode,
			Seed:   seed,
			Trace:  rec,
			Faults: plans,
		})
	}
	return nil, fmt.Errorf("unknown backend %q", kind)
}

// parseFaults parses the -faults DSL (see cudasim.ParseFaultPlans for the
// grammar; the parser is shared with the service's ScreenRequest.Faults).
func parseFaults(spec string, devices int, seed uint64) ([]cudasim.FaultPlan, error) {
	return cudasim.ParseFaultPlans(spec, devices, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsrun:", err)
	os.Exit(1)
}
