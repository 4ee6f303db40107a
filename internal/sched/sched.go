// Package sched implements the paper's heterogeneity-aware scheduling (its
// sections 3.2-3.3) as a sequential discrete-event program: a device pool
// that steps its simulated GPUs in a loop (where the paper runs one host
// thread per GPU), a warm-up phase that measures per-device throughput at
// run time, the Percent factor of the paper's equation 1, and three ways to
// split a batch of conformations across devices:
//
//	Homogeneous   — equal split, the baseline "homogeneous computation";
//	Heterogeneous — proportional to measured throughput (the contribution);
//	Dynamic       — cooperative chunk self-scheduling, the "cooperative
//	                scheduling of jobs" ablation.
package sched

import (
	"fmt"
	"log/slog"
	"math"
	"sync"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/trace"
)

// Mode selects the partitioning strategy.
type Mode int

const (
	// Homogeneous assigns every device the same number of conformations,
	// as if all devices had identical compute capability.
	Homogeneous Mode = iota
	// Heterogeneous assigns conformations proportionally to the
	// throughput measured in the warm-up phase.
	Heterogeneous
	// Dynamic self-schedules fixed-size chunks onto whichever device
	// becomes free first.
	Dynamic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Homogeneous:
		return "homogeneous"
	case Heterogeneous:
		return "heterogeneous"
	case Dynamic:
		return "dynamic"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Pool drives the devices of one simulated node. The paper binds one
// OpenMP host thread to each GPU to feed it; here a device's share is only
// clock arithmetic on its own streams, so the pool steps its devices in a
// loop in device order, which also fixes the order of trace spans.
type Pool struct {
	ctx    *cudasim.Context
	rec    *trace.Recorder
	tracks []string // trace.DeviceTrack of each device
	log    *slog.Logger

	fmu   sync.Mutex // guards the fault state below
	alive []bool
	stats FaultStats
}

// NewPool returns a pool over all devices of the context.
func NewPool(ctx *cudasim.Context) *Pool {
	alive := make([]bool, ctx.DeviceCount())
	tracks := make([]string, len(alive))
	for i := range alive {
		alive[i] = true
		tracks[i] = trace.DeviceTrack(i)
	}
	return &Pool{ctx: ctx, tracks: tracks, alive: alive, log: obs.Nop()}
}

// SetRecorder attaches a timeline recorder: every subsequent device
// operation, and every fault mark, is recorded on it as a trace.CatDevice
// span on the device's trace.DeviceTrack. Pass nil to stop recording.
func (p *Pool) SetRecorder(r *trace.Recorder) { p.rec = r }

// SetLogger routes the pool's structured logging — warm-up summaries,
// device fences, re-splits — through l. Like SetRecorder, call it before
// dispatching work; nil restores the no-op default.
func (p *Pool) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Nop()
	}
	p.log = l
}

// record adds one simulated-time span named name on device's track, if a
// recorder is attached: a device operation, or a fault mark when start ==
// end.
func (p *Pool) record(device int, name string, start, end float64) {
	if p.rec == nil {
		return
	}
	p.rec.AddSpan(trace.Span{
		Track: p.tracks[device], Name: name, Cat: trace.CatDevice,
		Clock: trace.ClockSim, Start: start, End: end,
	})
}

// Size returns the number of devices.
func (p *Pool) Size() int { return p.ctx.DeviceCount() }

// Context returns the underlying device context.
func (p *Pool) Context() *cudasim.Context { return p.ctx }

// WarmupResult holds the outcome of the warm-up phase.
type WarmupResult struct {
	// Times is the measured per-device execution time of the probe
	// workload, in simulated seconds (including measurement noise).
	Times []float64
	// Percent is the paper's equation 1: Times[i] / max(Times). The
	// slowest device has Percent = 1.
	Percent []float64
	// Weights is the normalized throughput share per device
	// ((1/Times[i]) / sum(1/Times)), the fraction of the workload the
	// heterogeneous split assigns to device i.
	Weights []float64
}

// Warmup runs the paper's warm-up phase: every device executes iters
// iterations of the probe launch on its own clock (the paper runs them
// concurrently, one host thread per GPU; the simulator steps the devices in
// turn), per-device times are gathered and reduced to the maximum, and
// Percent and throughput weights are derived.
//
// Real measurements are noisy; noiseAmp injects a deterministic relative
// perturbation in [-noiseAmp, +noiseAmp] per device, derived from seed, so
// that Modeled runs reproduce the imperfect balance a real warm-up attains.
// The probe runs on each device's default stream and advances its simulated
// clock, charging the warm-up cost to the run like the real system does.
//
// A device that faults during warm-up (transients beyond the retry budget,
// permanent loss, hang) is fenced: its Time is +Inf and its Percent and
// Weight are zero, so no work is ever assigned to it.
func (p *Pool) Warmup(probe cudasim.ScoringLaunch, iters int, noiseAmp float64, seed uint64) WarmupResult {
	if iters < 1 {
		iters = 1
	}
	n := p.Size()
	res := WarmupResult{
		Times:   make([]float64, n),
		Percent: make([]float64, n),
		Weights: make([]float64, n),
	}
	base := rng.New(seed)
	for tid := range n {
		t := p.warmupDevice(tid, probe, iters)
		if !math.IsInf(t, 1) {
			// Deterministic measurement noise, one stream per device.
			t *= 1 + noiseAmp*(2*base.Split(uint64(tid)).Float64()-1)
		}
		res.Times[tid] = t
	}
	// Reduce to the slowest device (the paper uses an OpenMP max
	// reduction) and derive Percent and weights; fenced devices (infinite
	// time) contribute nothing and get zero weight.
	slowest := 0.0
	for _, t := range res.Times {
		if !math.IsInf(t, 1) && t > slowest {
			slowest = t
		}
	}
	invSum := 0.0
	for _, t := range res.Times {
		if !math.IsInf(t, 1) && t > 0 {
			invSum += 1 / t
		}
	}
	for i, t := range res.Times {
		if math.IsInf(t, 1) || t <= 0 || slowest <= 0 || invSum <= 0 {
			continue
		}
		res.Percent[i] = t / slowest
		res.Weights[i] = (1 / t) / invSum
	}
	p.log.Debug("warmup measured",
		"iters", iters,
		"times", res.Times,
		"percent", res.Percent,
		"weights", res.Weights,
	)
	return res
}

// warmupDevice runs iters probe launches on device tid's default stream
// and returns their simulated time, or +Inf if the device is fenced before
// or during the probe.
func (p *Pool) warmupDevice(tid int, probe cudasim.ScoringLaunch, iters int) float64 {
	if !p.aliveAt(tid) {
		return math.Inf(1)
	}
	dev := p.ctx.Device(tid)
	start := dev.StreamClock(cudasim.DefaultStream)
	end := start
	for range iters {
		ev, err := p.runOp(tid, "warmup", func() (cudasim.Event, error) {
			return dev.Launch(cudasim.DefaultStream, probe)
		})
		if err != nil {
			return math.Inf(1)
		}
		end = ev.End
	}
	return end - start
}

// SplitEqual divides total items into n near-equal parts (the homogeneous
// computation). The first total%n parts get one extra item; the sum always
// equals total.
func SplitEqual(total, n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	base := total / n
	rem := total % n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// SplitProportional divides total items according to weights using the
// largest-remainder method, so the parts sum exactly to total and each part
// is within one item of its ideal share. Degenerate weights — negative,
// NaN, or infinite entries — are treated as zero, and an all-zero vector
// (what a fully-failed warm-up produces) falls back to the equal split
// rather than dividing by zero.
func SplitProportional(total int, weights []float64) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	// Sanitize: anything that is not a positive finite weight is zero.
	clean := make([]float64, n)
	sum := 0.0
	for i, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			clean[i] = w
			sum += w
		}
	}
	out := make([]int, n)
	if sum == 0 || total <= 0 {
		if total > 0 {
			return SplitEqual(total, n)
		}
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, w := range clean {
		ideal := float64(total) * w / sum
		out[i] = int(ideal)
		assigned += out[i]
		rems[i] = rem{idx: i, frac: ideal - float64(out[i])}
	}
	// Distribute the remainder (at most n items, since each floor drops
	// less than 1) to the largest fractional parts, ties broken by index.
	for assigned < total {
		best := -1
		for j := range rems {
			if best == -1 || rems[j].frac > rems[best].frac ||
				(rems[j].frac == rems[best].frac && rems[j].idx < rems[best].idx) {
				best = j
			}
		}
		out[rems[best].idx]++
		rems[best].frac = -2 // consumed
		assigned++
	}
	return out
}

// RoundToGranularity rounds each part of assign to a multiple of gran while
// conserving the total, modeling CUDA block granularity: a device always
// receives whole blocks. Parts are rounded to the nearest multiple, then
// the difference is repaid in gran-sized steps against the largest (or
// smallest) parts. Totals that are not multiples of gran leave one part
// ragged.
func RoundToGranularity(assign []int, gran int) []int {
	if gran <= 1 || len(assign) == 0 {
		out := make([]int, len(assign))
		copy(out, assign)
		return out
	}
	total := 0
	out := make([]int, len(assign))
	for i, a := range assign {
		total += a
		out[i] = (a + gran/2) / gran * gran
	}
	sum := 0
	for _, a := range out {
		sum += a
	}
	// Repay the rounding difference in gran steps.
	for sum > total {
		// Shrink the largest part.
		best := 0
		for i := range out {
			if out[i] > out[best] {
				best = i
			}
		}
		step := gran
		if sum-total < gran {
			step = sum - total
		}
		if out[best] < step {
			step = out[best]
		}
		if step == 0 {
			break
		}
		out[best] -= step
		sum -= step
	}
	for sum < total {
		// Grow the smallest part.
		best := 0
		for i := range out {
			if out[i] < out[best] {
				best = i
			}
		}
		step := gran
		if total-sum < gran {
			step = total - sum
		}
		out[best] += step
		sum += step
	}
	return out
}
