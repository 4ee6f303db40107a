package sched

import (
	"fmt"

	"github.com/metascreen/metascreen/internal/cudasim"
)

// Batch describes one generation's device work: a prototype launch whose
// Conformations field the executor replaces with each device's share, plus
// the per-conformation transfer size.
type Batch struct {
	// Proto is the kernel launch prototype (Kind, PairsPerConformation,
	// EvalsPerConformation, WarpsPerBlock).
	Proto cudasim.ScoringLaunch
	// BytesPerConformation is the host-device traffic per individual
	// (pose down, score back).
	BytesPerConformation int
}

// RunStatic executes one barrier-synchronized generation with a fixed
// assignment: device i receives assign[i] conformations, all devices start
// together at the pool's current barrier time, and the generation completes
// when the last device finishes (the paper: "the slowest GPU will determine
// the overall execution time"). It returns the simulated barrier completion
// time.
//
// Device faults are handled by the pool's fault policy: transient errors
// are retried in place up to maxRetries times, and a device fenced
// mid-generation has its unfinished share re-split across the survivors
// proportionally to their original shares (renormalized warm-up weights),
// recorded as "resplit" in the trace. The returned error is non-nil only
// when work remains and every device has been lost; the completion time
// then covers what did run, including time charged by hang watchdogs.
func (p *Pool) RunStatic(assign []int, b Batch) (float64, error) {
	if len(assign) != p.Size() {
		panic(fmt.Sprintf("sched: assignment for %d devices, pool has %d", len(assign), p.Size()))
	}
	n := p.Size()
	original := make([]int, n)
	copy(original, assign)
	pending := make([]int, n)
	copy(pending, assign)
	// Each failed round fences at least one device, so n+1 rounds always
	// suffice to either finish or run out of devices.
	for round := 0; round <= n; round++ {
		if leftover := p.resplitPending(pending, original); leftover > 0 {
			return p.barrierClose(), fmt.Errorf("sched: %d conformations unassigned: %w", leftover, ErrAllDevicesLost)
		}
		work := 0
		for _, c := range pending {
			work += c
		}
		if work == 0 {
			break
		}
		// Barrier start: no device may begin before all are free. A hung
		// device's watchdog-advanced clock counts — that time was really
		// spent waiting on it.
		start := p.Now()
		for tid := range n {
			if pending[tid] <= 0 || !p.aliveAt(tid) {
				continue
			}
			dev := p.ctx.Device(tid)
			dev.Idle(cudasim.DefaultStream, start)
			if err := p.deviceShare(tid, pending[tid], b); err == nil {
				pending[tid] = 0
			}
		}
	}
	return p.barrierClose(), nil
}

// barrierClose aligns every surviving device on the latest clock across
// all devices (dead ones included: their failure time is part of the
// timeline) and returns it.
func (p *Pool) barrierClose() float64 {
	end := p.Now()
	for i, d := range p.ctx.Devices() {
		if p.aliveAt(i) {
			d.Idle(cudasim.DefaultStream, end)
		}
	}
	return end
}

// RunDynamic executes one generation of total conformations by cooperative
// self-scheduling: work is cut into chunks of chunkSize conformations and
// each chunk goes to the alive device predicted to finish it first — its
// clock plus shareTime, ties to the lower index (greedy earliest-finish
// assignment, the discrete-event equivalent of a shared work queue). The
// prediction is the nominal cost model: fault plans stay invisible to the
// choice. Returns the simulated barrier completion time.
//
// A chunk that fails on a fenced device goes back on the queue, so the
// remaining devices naturally drain around a dead one; the error is
// non-nil only when chunks remain and no device is alive.
func (p *Pool) RunDynamic(total, chunkSize int, b Batch) (float64, error) {
	if chunkSize < 1 {
		chunkSize = 1
	}
	start := p.Now()
	for i, d := range p.ctx.Devices() {
		if p.aliveAt(i) {
			d.Idle(cudasim.DefaultStream, start)
		}
	}
	remaining := total
	for remaining > 0 {
		n := chunkSize
		if n > remaining {
			n = remaining
		}
		best, bestEnd := -1, 0.0
		for i, d := range p.ctx.Devices() {
			if !p.aliveAt(i) {
				continue
			}
			if end := d.StreamClock(cudasim.DefaultStream) + p.shareTime(i, n, b); best == -1 || end < bestEnd {
				best, bestEnd = i, end
			}
		}
		if best == -1 {
			return p.barrierClose(), fmt.Errorf("sched: %d conformations unassigned: %w", remaining, ErrAllDevicesLost)
		}
		if err := p.deviceShare(best, n, b); err != nil {
			// The chunk failed with the device; requeue it for the others.
			continue
		}
		remaining -= n
	}
	return p.barrierClose(), nil
}

// shareTime is the nominal time deviceShare takes on device tid for n
// conformations: upload, kernel and download at the cost model's rates.
func (p *Pool) shareTime(tid, n int, b Batch) float64 {
	m := p.ctx.Model()
	l := b.Proto
	l.Conformations = n
	return m.TransferTime(n*b.BytesPerConformation) + m.KernelTime(p.ctx.Properties(tid), l) + m.TransferTime(n*scoreBytes)
}

// Now returns the pool's barrier time: the latest default-stream clock
// across devices.
func (p *Pool) Now() float64 {
	t := 0.0
	for _, d := range p.ctx.Devices() {
		if c := d.StreamClock(cudasim.DefaultStream); c > t {
			t = c
		}
	}
	return t
}

// Assign computes the per-device conformation counts for a generation of
// total individuals under the given mode. For Heterogeneous mode the
// warm-up weights are used; Homogeneous ignores them. gran rounds
// assignments to whole blocks (pass 1 for warp granularity). Dynamic mode
// has no static assignment; Assign panics for it.
func Assign(mode Mode, total int, devices int, weights []float64, gran int) []int {
	switch mode {
	case Homogeneous:
		return RoundToGranularity(SplitEqual(total, devices), gran)
	case Heterogeneous:
		return RoundToGranularity(SplitProportional(total, weights), gran)
	}
	panic(fmt.Sprintf("sched: Assign called with mode %v", mode))
}
