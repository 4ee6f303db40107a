package core

import (
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/hostpar"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/trace"
)

// PoolConfig configures the multi-GPU backend.
type PoolConfig struct {
	// Specs lists the node's GPUs, e.g. Jupiter's 4x GTX590 + 2x C2075.
	Specs []cudasim.DeviceSpec
	// Mode selects the partitioning strategy: sched.Homogeneous models
	// the paper's "homogeneous computation", sched.Heterogeneous its
	// warm-up-balanced computation, sched.Dynamic cooperative chunking.
	Mode sched.Mode
	// Real selects actual force-field evaluation for the results (the
	// timeline always comes from the simulator); false uses the surrogate.
	Real bool
	// Workers bounds the goroutines used for Real evaluation; 0 = all CPUs.
	Workers int
	// WarmupIters is the number of warm-up iterations for Heterogeneous
	// mode ("five to ten" in the paper); 0 means 5.
	WarmupIters int
	// NoiseAmp is the relative warm-up measurement noise; negative means
	// 0.05, zero means exact measurements.
	NoiseAmp float64
	// WarpsPerBlock is the CUDA block granularity; 0 means 8.
	WarpsPerBlock int
	// ChunkSize is the Dynamic-mode chunk in conformations; 0 means 64.
	ChunkSize int
	// PipelineDepth > 1 splits each static generation into that many
	// chunks whose uploads overlap the previous chunk's kernel (CUDA
	// stream pipelining); 0 or 1 disables overlap.
	PipelineDepth int
	// Model holds the cost-model constants; zero value means defaults.
	Model cudasim.CostModel
	// Seed derives the warm-up noise.
	Seed uint64
	// Trace, when non-nil, records every device operation's timeline for
	// utilization analysis and Gantt rendering.
	Trace *trace.Recorder
	// Faults holds one fault plan per device (missing entries inject
	// nothing); see cudasim.FaultPlan.
	Faults []cudasim.FaultPlan
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.WarmupIters <= 0 {
		c.WarmupIters = 5
	}
	if c.NoiseAmp < 0 {
		c.NoiseAmp = 0.05
	}
	if c.WarpsPerBlock <= 0 {
		c.WarpsPerBlock = 8
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = hostpar.DefaultThreads()
	}
	if c.Model == (cudasim.CostModel{}) {
		c.Model = cudasim.DefaultCostModel()
	}
	return c
}

// PoolBackend runs evaluation on a simulated multi-GPU node. The simulated
// timeline comes from internal/sched (including warm-up cost, transfers and
// barrier synchronization); in Real mode the conformation energies are
// additionally computed on the host so that results are exact.
type PoolBackend struct {
	cfg   PoolConfig
	pool  *sched.Pool
	comp  compute
	team  *hostpar.Team
	pairs int
	// scratch holds one persistent workspace per team worker (see
	// poseArena); steady-state generations allocate nothing.
	scratch []poseArena

	// weights holds the warm-up throughput shares per kernel kind
	// (Heterogeneous mode only). The paper's warm-up runs iterations of
	// the metaheuristic itself, so the measured balance reflects each
	// kernel's own architecture efficiency; we reproduce that by probing
	// the scoring and improve kernels separately.
	weights map[cudasim.KernelKind][]float64
	// percent holds the raw warm-up Percent factors (equation 1) per
	// kernel kind, kept alongside weights for the debug snapshot.
	percent map[cudasim.KernelKind][]float64
	log     *slog.Logger
	evals   atomic.Int64

	failMu  sync.Mutex
	failure error // first unrecoverable scheduling failure
}

// NewPoolBackend builds the node, performing the warm-up phase when the
// mode is Heterogeneous (the homogeneous computation has nothing to
// measure). Warm-up cost is charged to the simulated timeline, as in the
// real system.
func NewPoolBackend(p *Problem, cfg PoolConfig) (*PoolBackend, error) {
	if math.IsNaN(cfg.NoiseAmp) || math.IsInf(cfg.NoiseAmp, 0) {
		return nil, fmt.Errorf("core: warm-up noise %g is not finite", cfg.NoiseAmp)
	}
	cfg = cfg.withDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("core: pool backend with no devices")
	}
	ctx, err := cudasim.NewContextWithModel(cfg.Model, cfg.Specs...)
	if err != nil {
		return nil, err
	}
	b := &PoolBackend{
		cfg:   cfg,
		pool:  sched.NewPool(ctx),
		team:  hostpar.NewTeam(cfg.Workers),
		pairs: p.PairsPerConformation(),
	}
	if cfg.Trace != nil {
		b.pool.SetRecorder(cfg.Trace)
	}
	// Arm fault injection before any operation (including warm-up) touches
	// the devices. The recovery policy is sched's only one: 3 retries in
	// place, and a hang charges cudasim.DefaultWatchdog.
	for i, plan := range cfg.Faults {
		if i >= ctx.DeviceCount() {
			break
		}
		ctx.Device(i).SetFaultPlan(plan)
	}
	// Memory gate: every device must hold the receptor, the ligand and the
	// conformation buffers (the paper's motivation for scaling out: "for
	// the simulation of large molecules, it is necessary to scale to large
	// clusters to deal with memory and computational requirements"). The
	// conformation estimate is conservative: the largest paper population
	// (1024 per spot) at 64 bytes per individual.
	required := deviceFootprint(p)
	for _, d := range ctx.Devices() {
		if err := d.Malloc(required); err != nil {
			return nil, fmt.Errorf("core: problem does not fit on %s (%d bytes needed): %w",
				d.Spec.Name, required, err)
		}
	}
	b.comp = newCompute(p, cfg.Real)
	b.scratch = make([]poseArena, b.team.Size())
	if cfg.Mode == sched.Heterogeneous {
		b.weights = make(map[cudasim.KernelKind][]float64)
		b.percent = make(map[cudasim.KernelKind][]float64)
	}
	b.log = obs.Nop()
	return b, nil
}

// SetTrace points the scheduling pool at a recorder after construction.
// The screening layer uses it to give every ligand job its own device
// timeline inside a shared job trace.
func (b *PoolBackend) SetTrace(r *trace.Recorder) { b.pool.SetRecorder(r) }

// SetLogger routes the backend's and the pool's structured logging
// (warm-up results, device fences, re-splits) through l.
func (b *PoolBackend) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Nop()
	}
	b.log = l
	b.pool.SetLogger(l)
}

// WarmupFactors implements the engine's warmupReporter: the measured
// warm-up Percent factors keyed by kernel name, or nil when no warm-up ran.
func (b *PoolBackend) WarmupFactors() map[string][]float64 {
	if len(b.percent) == 0 {
		return nil
	}
	out := make(map[string][]float64, len(b.percent))
	for kind, p := range b.percent {
		out[kind.String()] = append([]float64(nil), p...)
	}
	return out
}

// ensureWeights runs the warm-up phase for a kernel kind the first time
// that kernel is dispatched, probing at the run's real batch size. This is
// the paper's scheme — the warm-up executes "a small number of iterations
// of the metaheuristic" itself — and it matters: measuring at the actual
// launch size makes the measured ratio include the same wave-quantization
// the production launches experience, and keeps the warm-up cost
// proportional to the workload. The probe uses one evaluation per
// conformation; throughput ratios are independent of the evaluation count.
func (b *PoolBackend) ensureWeights(kind cudasim.KernelKind, batchSize int) {
	if b.weights == nil || b.weights[kind] != nil {
		return
	}
	probe := cudasim.ScoringLaunch{
		Kind:                 kind,
		Conformations:        batchSize,
		PairsPerConformation: b.pairs,
		WarpsPerBlock:        b.cfg.WarpsPerBlock,
	}
	res := b.pool.Warmup(probe, b.cfg.WarmupIters, b.cfg.NoiseAmp, b.cfg.Seed^uint64(kind))
	b.weights[kind] = res.Weights
	b.percent[kind] = res.Percent
	b.log.Debug("warmup complete",
		"kernel", kind.String(),
		"batch", batchSize,
		"weights", res.Weights,
		"percent", res.Percent,
	)
}

// deviceFootprint estimates the per-device memory a run needs, in bytes.
func deviceFootprint(p *Problem) int64 {
	const (
		bytesPerAtom = 40 // position (24) + type + padding + charge (8)
		bytesPerConf = 64 // pose (56) + score (8)
		maxPopPaper  = 1024
	)
	rec := int64(p.Receptor.NumAtoms()) * bytesPerAtom
	lig := int64(p.Ligand.NumAtoms()) * bytesPerAtom
	confs := int64(len(p.Spots)) * maxPopPaper * bytesPerConf
	return rec + lig + confs
}

// Name implements Backend.
func (b *PoolBackend) Name() string {
	names := make([]string, 0, len(b.cfg.Specs))
	for _, s := range b.cfg.Specs {
		names = append(names, s.Name)
	}
	return fmt.Sprintf("pool(%s, %s)", strings.Join(names, "+"), b.cfg.Mode)
}

// Weights returns the warm-up throughput shares for a kernel kind (nil
// unless the mode is Heterogeneous).
func (b *PoolBackend) Weights(kind cudasim.KernelKind) []float64 { return b.weights[kind] }

// Pool exposes the scheduling pool, mainly for tracing and tests.
func (b *PoolBackend) Pool() *sched.Pool { return b.pool }

// charge is the accounting of one kernel launch over n conformations,
// evals scoring evaluations each: the evaluation count and the simulated
// timeline of the generation batch (warm-up on the kind's first launch,
// split, transfers, kernels). ScoreBatch and ImproveBatch call it before
// they compute; a Modeled-mode timeline calls it alone. Device faults are
// absorbed by the pool's recovery (retries, re-splits); only an
// unrecoverable failure — every device lost — is latched and surfaced
// through Err.
func (b *PoolBackend) charge(kind cudasim.KernelKind, n, evals int) {
	b.evals.Add(int64(n) * int64(evals))
	if b.Err() != nil {
		return
	}
	if b.pool.AliveCount() == 0 {
		b.setFailure(fmt.Errorf("core: cannot dispatch %d conformations: %w", n, sched.ErrAllDevicesLost))
		return
	}
	b.ensureWeights(kind, n)
	batch := sched.Batch{
		Proto: cudasim.ScoringLaunch{
			Kind:                 kind,
			PairsPerConformation: b.pairs,
			EvalsPerConformation: evals,
			WarpsPerBlock:        b.cfg.WarpsPerBlock,
		},
		BytesPerConformation: 56, // translation + quaternion, float64
	}
	var err error
	switch b.cfg.Mode {
	case sched.Dynamic:
		_, err = b.pool.RunDynamic(n, b.cfg.ChunkSize, batch)
	default:
		// Assign over the devices still alive: a device fenced in an
		// earlier generation keeps weight zero from here on.
		assign := sched.AssignAlive(b.cfg.Mode, n, b.pool.Alive(), b.weights[kind], b.cfg.WarpsPerBlock)
		if b.cfg.PipelineDepth > 1 {
			_, err = b.pool.RunStaticPipelined(assign, batch, b.cfg.PipelineDepth)
		} else {
			_, err = b.pool.RunStatic(assign, batch)
		}
	}
	if err != nil {
		b.setFailure(err)
	}
}

func (b *PoolBackend) setFailure(err error) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if b.failure == nil {
		b.failure = err
		b.log.Error("backend failed", "err", err)
	}
}

// Err returns the first unrecoverable scheduling failure, or nil. The
// engine checks it each generation and aborts the run when set.
func (b *PoolBackend) Err() error {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	return b.failure
}

// FaultTotals reports the pool's fault counters: total device fault
// events, transient retries, and mid-run re-splits.
func (b *PoolBackend) FaultTotals() (faults, retries, resplits int64) {
	st := b.pool.FaultStats()
	return st.Faults(), st.Retries, st.Resplits
}

// ScoreBatch implements Backend.
func (b *PoolBackend) ScoreBatch(confs []*conformation.Conformation) {
	if len(confs) == 0 {
		return
	}
	b.charge(cudasim.KernelScoring, len(confs), 1)
	b.team.ForChunk(len(confs), hostpar.Static, 0, func(lo, hi, tid int) {
		b.comp.scoreBatch(confs[lo:hi], &b.scratch[tid])
	})
}

// ImproveBatch implements Backend.
func (b *PoolBackend) ImproveBatch(items []ImproveItem, moves int, scale conformation.MoveScale) {
	if len(items) == 0 || moves <= 0 {
		return
	}
	b.charge(cudasim.KernelImprove, len(items), moves)
	b.team.ForChunk(len(items), hostpar.Static, 0, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			b.comp.improve(items[i], moves, scale, &b.scratch[tid])
		}
	})
}

// modeled reports whether scores come from the surrogate.
func (b *PoolBackend) modeled() bool { return !b.cfg.Real }

// HostOps implements Backend: the serial host phases stall every device.
func (b *PoolBackend) HostOps(count int) {
	t := b.pool.Now() + b.cfg.Model.HostPhaseTime(count)
	for _, d := range b.pool.Context().Devices() {
		d.Idle(cudasim.DefaultStream, t)
	}
}

// SimTime implements Backend.
func (b *PoolBackend) SimTime() float64 { return b.pool.Now() }

// EnergyJoules returns the modeled energy consumed by all devices so far
// (busy time at TDP, idle time at the idle fraction).
func (b *PoolBackend) EnergyJoules() float64 {
	total := 0.0
	for _, d := range b.pool.Context().Devices() {
		total += d.EnergyJoules()
	}
	return total
}

// Evaluations implements Backend.
func (b *PoolBackend) Evaluations() int64 { return b.evals.Load() }
