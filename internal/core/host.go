package core

import (
	"fmt"
	"sync/atomic"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/hostpar"
)

// HostConfig configures the multicore baseline backend (the paper's
// "OpenMP" column).
type HostConfig struct {
	// Real selects actual force-field evaluation; false selects the
	// modeled surrogate. Real mode improves by the paper's random
	// perturbation moves and scores poses against their spot's
	// forcefield.NeighborList, in batched and single-pose paths alike; the
	// receptor's cell list only serves poses that leave the spot's region.
	Real bool
	// Workers is the number of goroutines used for Real evaluation;
	// 0 means all CPUs.
	Workers int
	// DisableBatch forces the one-pose-at-a-time scoring path. Rankings
	// are byte-identical either way; this is a differential-testing and
	// debugging knob.
	DisableBatch bool
	// ModelCores and ModelClockMHz describe the simulated machine's CPU
	// for the timeline (e.g. Jupiter: 12 cores at 2000 MHz).
	ModelCores    int
	ModelClockMHz float64
	// Model holds the cost-model constants; zero value means defaults.
	Model cudasim.CostModel
}

// withDefaults fills zero fields.
func (c HostConfig) withDefaults() HostConfig {
	if c.Workers <= 0 {
		c.Workers = hostpar.DefaultThreads()
	}
	if c.ModelCores <= 0 {
		c.ModelCores = c.Workers
	}
	if c.ModelClockMHz <= 0 {
		c.ModelClockMHz = 2000
	}
	if c.Model == (cudasim.CostModel{}) {
		c.Model = cudasim.DefaultCostModel()
	}
	return c
}

// HostBackend evaluates on the (simulated) multicore host: the starting
// point of the paper's comparison tables.
type HostBackend struct {
	cfg   HostConfig
	comp  compute
	team  *hostpar.Team
	pairs int
	// scratch holds one persistent workspace per team worker; reusing it
	// across generations keeps the scoring hot path allocation-free.
	scratch []poseArena

	simTime float64
	evals   atomic.Int64
}

// NewHostBackend builds the multicore backend for a problem.
func NewHostBackend(p *Problem, cfg HostConfig) (*HostBackend, error) {
	cfg = cfg.withDefaults()
	b := &HostBackend{
		cfg:   cfg,
		comp:  newCompute(p, cfg.Real),
		team:  hostpar.NewTeam(cfg.Workers),
		pairs: p.PairsPerConformation(),
	}
	b.scratch = make([]poseArena, b.team.Size())
	return b, nil
}

// Name implements Backend.
func (b *HostBackend) Name() string {
	mode := "modeled"
	if b.cfg.Real {
		mode = "real"
	}
	return fmt.Sprintf("host(%d cores, %s)", b.cfg.ModelCores, mode)
}

// ScoreBatch implements Backend.
func (b *HostBackend) ScoreBatch(confs []*conformation.Conformation) {
	if len(confs) == 0 {
		return
	}
	b.charge(cudasim.KernelScoring, len(confs), 1)
	if b.cfg.DisableBatch {
		b.runParallel(len(confs), func(i int, a *poseArena) {
			b.comp.score(confs[i], a)
		})
	} else {
		b.team.ForChunk(len(confs), hostpar.Static, 0, func(lo, hi, tid int) {
			b.comp.scoreBatch(confs[lo:hi], &b.scratch[tid])
		})
	}
}

// ImproveBatch implements Backend.
func (b *HostBackend) ImproveBatch(items []ImproveItem, moves int, scale conformation.MoveScale) {
	if len(items) == 0 || moves <= 0 {
		return
	}
	b.charge(cudasim.KernelImprove, len(items), moves)
	b.runParallel(len(items), func(i int, a *poseArena) {
		b.comp.improve(items[i], moves, scale, a)
	})
}

// charge is the accounting of one kernel launch over n conformations,
// evals scoring evaluations each: the evaluation count and the modeled
// CPU time. ScoreBatch and ImproveBatch call it before they compute; a
// Modeled-mode timeline calls it alone.
func (b *HostBackend) charge(kind cudasim.KernelKind, n, evals int) {
	b.evals.Add(int64(n) * int64(evals))
	b.simTime += b.cfg.Model.CPUTime(b.cfg.ModelCores, b.cfg.ModelClockMHz, cudasim.ScoringLaunch{
		Kind:                 kind,
		Conformations:        n,
		PairsPerConformation: b.pairs,
		EvalsPerConformation: evals,
	})
}

// modeled reports whether scores come from the surrogate.
func (b *HostBackend) modeled() bool { return !b.cfg.Real }

// HostOps implements Backend.
func (b *HostBackend) HostOps(count int) {
	b.simTime += b.cfg.Model.HostPhaseTime(count)
}

// SimTime implements Backend.
func (b *HostBackend) SimTime() float64 { return b.simTime }

// EnergyJoules returns the modeled host package energy for the simulated
// duration.
func (b *HostBackend) EnergyJoules() float64 {
	return cudasim.DefaultCPUEnergy(b.cfg.ModelCores).EnergyJoules(b.simTime)
}

// Evaluations implements Backend.
func (b *HostBackend) Evaluations() int64 { return b.evals.Load() }

// runParallel executes body over [0, n) with each worker goroutine's
// persistent arena.
func (b *HostBackend) runParallel(n int, body func(i int, a *poseArena)) {
	b.team.ForChunk(n, hostpar.Static, 0, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			body(i, &b.scratch[tid])
		}
	})
}
