package tables

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/hostpar"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/sched"
)

// Row is one metaheuristic's line in a result table, in the paper's column
// layout. Times are simulated seconds; a NaN HomogeneousSystem means the
// table has no such column (Hertz).
type Row struct {
	// Metaheuristic is "M1".."M4".
	Metaheuristic string
	// OpenMP is the multicore baseline time.
	OpenMP float64
	// HomogeneousSystem is the time on the machine's homogeneous GPU
	// subset (Jupiter's 4x GTX590), equal split.
	HomogeneousSystem float64
	// HetHomogComputation is the heterogeneous system under the
	// homogeneous (equal-split) algorithm.
	HetHomogComputation float64
	// HetHetComputation is the heterogeneous system under the
	// warm-up-balanced algorithm.
	HetHetComputation float64
	// EnergyOpenMP and EnergyHetHet are the modeled energies (joules) of
	// the OpenMP baseline and the heterogeneous computation — the paper's
	// "waste energy" concern, quantified.
	EnergyOpenMP, EnergyHetHet float64
}

// EnergyRatio returns how many times more energy the CPU baseline burns
// than the heterogeneous multi-GPU run.
func (r Row) EnergyRatio() float64 { return r.EnergyOpenMP / r.EnergyHetHet }

// SpeedupHetVsHomog is the paper's "SPEED-UP Heterogeneous Computation vs
// Homogeneous Computation" column.
func (r Row) SpeedupHetVsHomog() float64 { return r.HetHomogComputation / r.HetHetComputation }

// SpeedupOpenMPVsHet is the paper's "SPEED-UP OpenMP vs Heterogeneous
// Computation" column.
func (r Row) SpeedupOpenMPVsHet() float64 { return r.OpenMP / r.HetHetComputation }

// Table is one regenerated result table.
type Table struct {
	// Number is the paper's table number, 6-9.
	Number int
	// Machine and Dataset identify the experiment.
	Machine Machine
	Dataset string
	// Rows are M1..M4 in order.
	Rows []Row
}

// Experiment identifies a (machine, dataset) pair by the paper's table
// number.
type Experiment struct {
	Number  int
	Machine Machine
	Dataset string
}

// Experiments returns the paper's four result tables in order.
func Experiments() []Experiment {
	return []Experiment{
		{Number: 6, Machine: Jupiter(), Dataset: "2BSM"},
		{Number: 7, Machine: Jupiter(), Dataset: "2BXG"},
		{Number: 8, Machine: Hertz(), Dataset: "2BSM"},
		{Number: 9, Machine: Hertz(), Dataset: "2BXG"},
	}
}

// ExperimentByNumber returns the experiment for a paper table number.
func ExperimentByNumber(n int) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Number == n {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("tables: no experiment for table %d (want 6-9)", n)
}

// Config tunes a table run.
type Config struct {
	// Scale shrinks the paper-scale workload; 0 or 1 means full scale.
	Scale float64
	// Seed drives the stochastic components.
	Seed uint64
	// NoiseAmp is the warm-up measurement noise for the heterogeneous
	// algorithm; negative means the 0.05 default.
	NoiseAmp float64
	// WarpsPerBlock is the CUDA block granularity; 0 means 8.
	WarpsPerBlock int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2016
	}
	if c.NoiseAmp < 0 {
		c.NoiseAmp = 0.05
	}
	if c.WarpsPerBlock <= 0 {
		c.WarpsPerBlock = 8
	}
	return c
}

// Run regenerates one of the paper's result tables: RunTables with one
// experiment.
func Run(exp Experiment, cfg Config) (*Table, error) {
	return runTable(exp, metaheuristic.PaperNames(), cfg, 0)
}

// RunTables regenerates the given result tables in one replay. Each
// (dataset, metaheuristic) runs its search once, split by spot across the
// docking pool's GOMAXPROCS goroutines, and replays it on every column of
// every table on that dataset. The tables, in exps order, are
// bit-identical to one serial Run per experiment.
func RunTables(exps []Experiment, cfg Config) ([]*Table, error) {
	return runTables(exps, metaheuristic.PaperNames(), cfg, 0)
}

// RunRow regenerates a single metaheuristic's row of an experiment's
// table, for benchmarks that want one row at a time.
func RunRow(exp Experiment, mh string, cfg Config) (Row, error) {
	t, err := runTable(exp, []string{mh}, cfg, 0)
	if err != nil {
		return Row{}, err
	}
	return t.Rows[0], nil
}

// setup is one machine configuration a search is replayed on: the OpenMP
// baseline on the host's cores, or a set of the machine's GPUs under a
// split mode.
type setup struct {
	// gpus picks the devices; nil means the OpenMP baseline.
	gpus func(Machine) []cudasim.DeviceSpec
	mode sched.Mode
}

func allGPUs(m Machine) []cudasim.DeviceSpec { return m.GPUs }

// columns are a row's machine configurations in the paper's column order,
// each with the cells its timeline fills.
var columns = [...]struct {
	setup setup
	store func(*Row, *core.Result)
}{
	{setup{}, func(r *Row, res *core.Result) {
		r.OpenMP, r.EnergyOpenMP = res.SimulatedSeconds, res.EnergyJoules
	}},
	{setup{Machine.HomogeneousGPUs, sched.Homogeneous}, func(r *Row, res *core.Result) {
		r.HomogeneousSystem = res.SimulatedSeconds
	}},
	{setup{allGPUs, sched.Homogeneous}, func(r *Row, res *core.Result) {
		r.HetHomogComputation = res.SimulatedSeconds
	}},
	{setup{allGPUs, sched.Heterogeneous}, func(r *Row, res *core.Result) {
		r.HetHetComputation, r.EnergyHetHet = res.SimulatedSeconds, res.EnergyJoules
	}},
}

// on reports whether machine m has this configuration (Hertz has no
// homogeneous subset).
func (s setup) on(m Machine) bool { return s.gpus == nil || len(s.gpus(m)) > 0 }

// backend builds the configuration's backend on machine m.
func (s setup) backend(p *core.Problem, m Machine, cfg Config) (core.Backend, error) {
	if s.gpus == nil {
		return core.NewHostBackend(p, core.HostConfig{
			ModelCores:    m.CPUCores,
			ModelClockMHz: m.CPUClockMHz,
		})
	}
	return core.NewPoolBackend(p, core.PoolConfig{
		Specs:         s.gpus(m),
		Mode:          s.mode,
		NoiseAmp:      cfg.NoiseAmp,
		WarpsPerBlock: cfg.WarpsPerBlock,
		Seed:          cfg.Seed,
	})
}

// runTable replays one experiment's rows of mhs; see runTables.
func runTable(exp Experiment, mhs []string, cfg Config, workers int) (*Table, error) {
	tabs, err := runTables([]Experiment{exp}, mhs, cfg, workers)
	if err != nil {
		return nil, err
	}
	return tabs[0], nil
}

// runTables replays the rows of mhs of every experiment, one job per
// (dataset, metaheuristic) in table order: the search once, then one
// timeline per column of each table on that dataset. The jobs run on a pool
// of at most workers goroutines (GOMAXPROCS when workers <= 0).
func runTables(exps []Experiment, mhs []string, cfg Config, workers int) ([]*Table, error) {
	cfg = cfg.withDefaults()
	tabs := make([]*Table, len(exps))
	var jobs []job
	type key struct{ dataset, mh string }
	jobOf := make(map[key]int)
	problems := make(map[string]*core.Problem)
	for e, exp := range exps {
		problem, ok := problems[exp.Dataset]
		if !ok {
			var err error
			if problem, err = newProblem(exp.Dataset); err != nil {
				return nil, err
			}
			problems[exp.Dataset] = problem
		}
		t := &Table{Number: exp.Number, Machine: exp.Machine, Dataset: exp.Dataset, Rows: make([]Row, len(mhs))}
		tabs[e] = t
		for i, mh := range mhs {
			row := &t.Rows[i]
			*row = Row{Metaheuristic: mh, HomogeneousSystem: math.NaN()}
			k, ok := jobOf[key{exp.Dataset, mh}]
			if !ok {
				k = len(jobs)
				jobOf[key{exp.Dataset, mh}] = k
				jobs = append(jobs, job{label: fmt.Sprintf("table %d", exp.Number), mh: mh, p: problem})
			}
			for _, c := range columns {
				if c.setup.on(exp.Machine) {
					jobs[k].timelines = append(jobs[k].timelines,
						timeline{exp.Machine, c.setup, func(res *core.Result) { c.store(row, res) }})
				}
			}
		}
	}
	if err := replay(cfg, 0, jobs, workers); err != nil {
		return nil, err
	}
	return tabs, nil
}

// newProblem builds a dataset's problem. A replay's jobs share it: its
// only lazy state, the receptor's cell list, is built under a sync.Once.
func newProblem(dataset string) (*core.Problem, error) {
	ds, err := core.DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	return core.NewProblemFromDataset(ds, forcefield.Options{})
}

// timeline is one machine configuration a search is replayed on, with
// the slot its result fills.
type timeline struct {
	machine Machine
	setup   setup
	store   func(*core.Result)
}

// job is one (dataset, metaheuristic)'s share of a replay: its Modeled
// search, run once, then its timelines in order, each on its own fresh
// backend. Where a docking runs never changes its search, so every
// timeline shares it. label names the job's first table in errors.
type job struct {
	label     string
	mh        string
	p         *core.Problem
	timelines []timeline
}

// replay runs the jobs on the docking pool. Each job's search is split
// into one contiguous spot range per pool worker (at most one per spot),
// and each (job, spot range) is a unit of the pool. Units are claimed in
// job order, so callers list each dataset's costliest job first (M1, the
// longest search, is). The unit that finishes a job's last range merges
// the ranges and replays the merged search, which equals the whole search
// bit for bit, on the job's timelines. Each timeline writes only its own
// slot, so the output is bit-identical to a serial replay. A positive
// budget cuts each timeline at that simulated deadline. A failure is
// wrapped as "tables: <label> <MH>: ...".
func replay(cfg Config, budget float64, jobs []job, workers int) error {
	if workers <= 0 {
		workers = hostpar.DefaultThreads()
	}
	type unit struct{ job, part, lo, hi int }
	var units []unit
	parts := make([][]*core.Search, len(jobs))
	left := make([]atomic.Int32, len(jobs))
	for j := range jobs {
		n := len(jobs[j].p.Spots)
		k := max(1, min(workers, n))
		parts[j] = make([]*core.Search, k)
		left[j].Store(int32(k))
		for r := range k {
			units = append(units, unit{j, r, n * r / k, n * (r + 1) / k})
		}
	}
	return dockAll(len(units), workers, func(i int) error {
		u := units[i]
		j := &jobs[u.job]
		err := func() error {
			alg, err := metaheuristic.NewPaper(j.mh, cfg.Scale)
			if err != nil {
				return err
			}
			if parts[u.job][u.part], err = core.RunSearchSpots(j.p, alg, cfg.Seed, u.lo, u.hi); err != nil {
				return err
			}
			// The last range to finish sees every other range's search:
			// each stored its part before its own Add.
			if left[u.job].Add(-1) > 0 {
				return nil
			}
			search, err := core.MergeSearches(parts[u.job])
			if err != nil {
				return err
			}
			return j.replayOn(search, cfg, budget)
		}()
		if err != nil {
			return fmt.Errorf("tables: %s %s: %w", j.label, j.mh, err)
		}
		return nil
	})
}

// dockAll is the docking pool: it runs job(0) .. job(n-1) on at most
// workers goroutines (GOMAXPROCS when workers <= 0), each claiming the next
// index in order. Once a job fails no new one starts; dockAll returns when
// every started job has finished, with the error of the lowest failed
// index (a job skipped after a failure comes later in the order than it).
func dockAll(n, workers int, job func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	hostpar.NewTeam(workers).ForChunk(n, hostpar.Dynamic, 1, func(i, _, _ int) {
		if failed.Load() {
			return
		}
		if errs[i] = job(i); errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayOn replays the job's search on each timeline's backend.
func (j *job) replayOn(search *core.Search, cfg Config, budget float64) error {
	for _, tl := range j.timelines {
		backend, err := tl.setup.backend(j.p, tl.machine, cfg)
		if err != nil {
			return err
		}
		res, err := search.Timeline(backend, budget)
		if err != nil {
			return err
		}
		tl.store(res)
	}
	return nil
}
