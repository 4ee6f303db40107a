// Package metascreen is the public API of the metascreen library: a Go
// reproduction of "Enhancing Metaheuristic-based Virtual Screening Methods
// on Massively Parallel and Heterogeneous Systems" (PMAM/PPoPP 2016).
//
// The package is a curated facade over the implementation packages under
// internal/. The typical flow:
//
//	ds := metascreen.Dataset2BSM()
//	problem, _ := metascreen.NewProblem(ds.Receptor, ds.Ligand,
//	        metascreen.SpotOptions{MaxSpots: 8}, metascreen.ForceFieldOptions{}) // LJ, the only score
//	alg, _ := metascreen.NewPaperMetaheuristic("M3", 0.05)
//	backend, _ := metascreen.NewHostBackend(problem, metascreen.HostConfig{Real: true})
//	res, _ := metascreen.Run(problem, alg, backend, 42)
//	fmt.Println(res.Best)
//
// To schedule over a simulated heterogeneous multi-GPU node (the paper's
// contribution), swap the backend:
//
//	backend, _ := metascreen.NewPoolBackend(problem, metascreen.PoolConfig{
//	        Specs: []metascreen.DeviceSpec{metascreen.TeslaK40c, metascreen.GTX580},
//	        Mode:  metascreen.Heterogeneous,
//	        Real:  true,
//	})
//
// The paper's result tables regenerate through RunTable; see also
// cmd/vstables and EXPERIMENTS.md. NewService runs screens as jobs behind
// an HTTP API; multi-node screening is cmd/vsserved's coordinator and
// worker roles (README, "Distributed screening"), not a library call.
package metascreen

import (
	"context"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/tables"
)

// --- molecules and problems ---------------------------------------------

// Molecule is a receptor protein or small-molecule ligand.
type Molecule = molecule.Molecule

// Atom is one atom of a molecule.
type Atom = molecule.Atom

// Dataset is a named receptor-ligand benchmark pair.
type Dataset = core.Dataset

// Dataset2BSM returns the paper's 2BSM benchmark (synthetic stand-in with
// the published atom counts: receptor 3264, ligand 45).
func Dataset2BSM() Dataset { return core.Dataset2BSM() }

// Dataset2BXG returns the paper's 2BXG benchmark (receptor 8609, ligand 32).
func Dataset2BXG() Dataset { return core.Dataset2BXG() }

// SpotOptions configures surface-spot detection.
type SpotOptions = surface.Options

// Spot is one independent docking region on the receptor surface.
type Spot = surface.Spot

// ForceFieldOptions selects nothing: the paper's Lennard-Jones term is the
// only score. NewProblem, NewProblemFromDataset, Screen and ScreenCtx keep
// taking it; pass ForceFieldOptions{}.
type ForceFieldOptions = forcefield.Options

// Problem is one docking problem: receptor, detected spots, and ligand.
type Problem = core.Problem

// NewProblem validates the molecules, detects surface spots and prepares
// scoring topologies.
func NewProblem(receptor, ligand *Molecule, spots SpotOptions, ff ForceFieldOptions) (*Problem, error) {
	return core.NewProblem(receptor, ligand, spots, ff)
}

// NewProblemFromDataset builds the problem for a benchmark dataset with
// the paper's default spot scaling (receptorAtoms/100).
func NewProblemFromDataset(d Dataset, ff ForceFieldOptions) (*Problem, error) {
	return core.NewProblemFromDataset(d, ff)
}

// --- metaheuristics -------------------------------------------------------

// Metaheuristic is an algorithm filling the paper's six-function template.
type Metaheuristic = metaheuristic.Algorithm

// MetaheuristicParams are the template parameters (population, selection
// and improvement fractions, local-search moves, generations).
type MetaheuristicParams = metaheuristic.Params

// NewPaperMetaheuristic constructs one of the paper's four metaheuristics
// ("M1".."M4") at the given budget scale (1 = paper scale).
func NewPaperMetaheuristic(name string, scale float64) (Metaheuristic, error) {
	return metaheuristic.NewPaper(name, scale)
}

// NewGenetic (M1), NewScatterSearch (M2/M3) and NewLocalSearch (M4) fill
// the template with the Combine step of one row of the paper's Table 4 and
// caller-chosen parameters.
var (
	NewGenetic       = metaheuristic.NewGenetic
	NewScatterSearch = metaheuristic.NewScatterSearch
	NewLocalSearch   = metaheuristic.NewLocalSearch
)

// --- backends and execution ----------------------------------------------

// Backend executes the evaluation work of a run.
type Backend = core.Backend

// HostConfig configures the multicore baseline backend.
type HostConfig = core.HostConfig

// PoolConfig configures the simulated multi-GPU backend.
type PoolConfig = core.PoolConfig

// NewHostBackend builds the multicore backend.
func NewHostBackend(p *Problem, cfg HostConfig) (Backend, error) {
	return core.NewHostBackend(p, cfg)
}

// NewPoolBackend builds the simulated multi-GPU backend, running the
// paper's warm-up phase lazily when the mode is Heterogeneous.
func NewPoolBackend(p *Problem, cfg PoolConfig) (Backend, error) {
	return core.NewPoolBackend(p, cfg)
}

// Mode selects the partitioning strategy of a pool backend.
type Mode = sched.Mode

// Partitioning strategies.
const (
	// Homogeneous is the equal split (the paper's baseline computation).
	Homogeneous = sched.Homogeneous
	// Heterogeneous splits proportionally to warm-up throughput (the
	// paper's contribution).
	Heterogeneous = sched.Heterogeneous
	// Dynamic self-schedules chunks cooperatively.
	Dynamic = sched.Dynamic
)

// Conformation is one candidate solution: a rigid ligand pose at a surface
// spot.
type Conformation = conformation.Conformation

// Result is the outcome of one screening run.
type Result = core.Result

// Run executes one virtual-screening run; same inputs and seed always give
// the same result.
func Run(p *Problem, alg Metaheuristic, backend Backend, seed uint64) (*Result, error) {
	return core.Run(p, alg, backend, seed)
}

// RunCtx is Run with cancellation: the run aborts between metaheuristic
// generations as soon as ctx is cancelled or its deadline passes.
func RunCtx(ctx context.Context, p *Problem, alg Metaheuristic, backend Backend, seed uint64) (*Result, error) {
	return core.RunCtx(ctx, p, alg, backend, seed)
}

// RunBudget executes a run under a simulated-time deadline.
func RunBudget(p *Problem, alg Metaheuristic, backend Backend, seed uint64, budgetSeconds float64) (*Result, error) {
	return core.RunBudget(p, alg, backend, seed, budgetSeconds)
}

// RunBudgetCtx is RunBudget with cancellation; the simulated-time budget
// and ctx's real-time deadline are independent stop conditions.
func RunBudgetCtx(ctx context.Context, p *Problem, alg Metaheuristic, backend Backend, seed uint64, budgetSeconds float64) (*Result, error) {
	return core.RunBudgetCtx(ctx, p, alg, backend, seed, budgetSeconds)
}

// ScreenResult ranks a ligand library against one receptor.
type ScreenResult = core.ScreenResult

// Screen docks every ligand of a library and returns the ranking, one
// worker goroutine per CPU. Equal-energy ligands rank by name, so the
// ranking never depends on library order.
func Screen(receptor *Molecule, library []*Molecule, spots SpotOptions, ff ForceFieldOptions,
	algf core.AlgorithmFactory, backf core.BackendFactory, seed uint64) (*ScreenResult, error) {
	return core.Screen(receptor, library, spots, ff, algf, backf, seed)
}

// ScreenCtx is Screen with cancellation and an explicit worker bound
// (0 = one per CPU). Every worker count returns a byte-identical ranking:
// each ligand runs on its own seed lane keyed by its name.
func ScreenCtx(ctx context.Context, receptor *Molecule, library []*Molecule, spots SpotOptions, ff ForceFieldOptions,
	algf core.AlgorithmFactory, backf core.BackendFactory, seed uint64, workers int) (*ScreenResult, error) {
	return core.ScreenCtx(ctx, receptor, library, spots, ff, algf, backf, seed, workers)
}

// SyntheticLibrary returns n deterministic synthetic ligands with varied
// drug-like sizes — the workload generator shared by cmd/vsscreen and the
// screening service.
var SyntheticLibrary = core.SyntheticLibrary

// HostBackendFactory and PoolBackendFactory adapt configurations to the
// factory signature Screen takes.
var (
	HostBackendFactory = core.HostBackendFactory
	PoolBackendFactory = core.PoolBackendFactory
)

// --- simulated hardware ----------------------------------------------------

// DeviceSpec describes a simulated GPU model.
type DeviceSpec = cudasim.DeviceSpec

// The paper's four GPU models (its Tables 2 and 3).
var (
	GTX590     = cudasim.GTX590
	TeslaC2075 = cudasim.TeslaC2075
	TeslaK40c  = cudasim.TeslaK40c
	GTX580     = cudasim.GTX580
)

// DeviceCatalogue lists every built-in GPU model.
func DeviceCatalogue() []DeviceSpec { return cudasim.Catalogue() }

// Machine describes one of the paper's experimental platforms.
type Machine = tables.Machine

// Jupiter and Hertz return the paper's two platforms.
func Jupiter() Machine { return tables.Jupiter() }

// Hertz returns the paper's Hertz platform (Tesla K40c + GTX 580).
func Hertz() Machine { return tables.Hertz() }

// --- experiments ------------------------------------------------------------

// Table is one regenerated result table of the paper.
type Table = tables.Table

// TableConfig tunes a table run.
type TableConfig = tables.Config

// RunTable regenerates one of the paper's result tables (6-9).
func RunTable(number int, cfg TableConfig) (*Table, error) {
	exp, err := tables.ExperimentByNumber(number)
	if err != nil {
		return nil, err
	}
	return tables.Run(exp, cfg)
}

// --- screening service ------------------------------------------------------

// ServiceConfig sizes the screening service (workers, queue bound,
// per-job ligand parallelism).
type ServiceConfig = service.Config

// ScreeningService runs screens as jobs: a bounded queue, a parallel
// worker pool over the engine, an HTTP JSON API (Handler) and Prometheus
// metrics. See cmd/vsserved for the ready-made server binary.
type ScreeningService = service.Service

// ScreenRequest describes one service screening job.
type ScreenRequest = service.ScreenRequest

// JobView is a job snapshot as returned by the service API.
type JobView = service.JobView

// JobState is a job's lifecycle position ("queued", "running", "done",
// "failed", "cancelled").
type JobState = service.JobState

// NewService builds a screening service and starts its worker pool; stop
// it with its Shutdown method. With ServiceConfig.DataDir set, the service
// first replays the journal in that directory and resumes jobs that were
// interrupted by a crash; the error reports an unusable data dir.
func NewService(cfg ServiceConfig) (*ScreeningService, error) { return service.New(cfg) }

// ErrQueueFull is the service's admission-control rejection (HTTP 429 on
// the API).
var ErrQueueFull = service.ErrQueueFull
