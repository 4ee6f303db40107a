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

// Run regenerates one of the paper's result tables. Each row runs its
// metaheuristic's search once and replays it on every column's clock; the
// rows run concurrently on up to GOMAXPROCS goroutines, and the table is
// bit-identical to a serial replay.
func Run(exp Experiment, cfg Config) (*Table, error) {
	return runTable(exp, metaheuristic.PaperNames(), cfg, 0)
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

// runTable replays the rows of mhs, one job per row: the row's search,
// then one timeline per column. The jobs run on a pool of at most workers
// goroutines (GOMAXPROCS when workers <= 0).
func runTable(exp Experiment, mhs []string, cfg Config, workers int) (*Table, error) {
	cfg = cfg.withDefaults()
	problem, err := newProblem(exp.Dataset)
	if err != nil {
		return nil, err
	}
	t := &Table{Number: exp.Number, Machine: exp.Machine, Dataset: exp.Dataset, Rows: make([]Row, len(mhs))}
	jobs := make([]job, len(mhs))
	for i, mh := range mhs {
		row := &t.Rows[i]
		*row = Row{Metaheuristic: mh, HomogeneousSystem: math.NaN()}
		jobs[i].mh = mh
		for _, c := range columns {
			if c.setup.on(exp.Machine) {
				jobs[i].timelines = append(jobs[i].timelines, timeline{c.setup, func(res *core.Result) { c.store(row, res) }})
			}
		}
	}
	if err := replay(problem, exp.Machine, cfg, 0, fmt.Sprintf("table %d", exp.Number), jobs, workers); err != nil {
		return nil, err
	}
	return t, nil
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
	setup setup
	store func(*core.Result)
}

// job is one metaheuristic's share of a replay: its Modeled search, run
// once, then its timelines in order, each on its own fresh backend. Where
// a docking runs never changes its search, so every timeline shares it.
type job struct {
	mh        string
	timelines []timeline
}

// replay runs the jobs, which share problem p, on the docking pool;
// callers list the costliest first (M1, the longest search, is). Each
// timeline writes only its own slot, so the output is bit-identical to a
// serial replay. A positive budget cuts each timeline at that simulated
// deadline. A failure is wrapped as "tables: <label> <MH>: ...".
func replay(p *core.Problem, m Machine, cfg Config, budget float64, label string, jobs []job, workers int) error {
	return dockAll(len(jobs), workers, func(i int) error {
		if err := jobs[i].run(p, m, cfg, budget); err != nil {
			return fmt.Errorf("tables: %s %s: %w", label, jobs[i].mh, err)
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

// run builds the job's metaheuristic, runs its search, and replays the
// search on each timeline's backend.
func (j job) run(p *core.Problem, m Machine, cfg Config, budget float64) error {
	alg, err := metaheuristic.NewPaper(j.mh, cfg.Scale)
	if err != nil {
		return err
	}
	search, err := core.RunSearch(p, alg, cfg.Seed)
	if err != nil {
		return err
	}
	for _, tl := range j.timelines {
		backend, err := tl.setup.backend(p, m, cfg)
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
