package sched

import (
	"fmt"

	"github.com/metascreen/metascreen/internal/cudasim"
)

// Pipelined execution: CUDA programs hide transfer latency by splitting a
// batch into chunks and overlapping chunk k's host-to-device copy (on a
// copy stream) with chunk k-1's kernel (on a compute stream). This file
// models that optimization; the gain over the plain barrier executor is
// bounded by the transfer fraction of the generation, which the
// block-granularity ablation quantifies.

const (
	computeStream = 0
	copyStream    = 1
)

// RunStaticPipelined executes one generation like RunStatic but with each
// device's work split into `depth` chunks whose transfers overlap the
// previous chunk's kernel. depth <= 1 degenerates to RunStatic behaviour.
//
// Fault handling matches RunStatic: a device fenced mid-generation has its
// whole share re-split across the survivors (chunks already finished on
// the dead device are conservatively redone — scores never came back).
func (p *Pool) RunStaticPipelined(assign []int, b Batch, depth int) (float64, error) {
	if len(assign) != p.Size() {
		panic(fmt.Sprintf("sched: assignment for %d devices, pool has %d", len(assign), p.Size()))
	}
	if depth < 1 {
		depth = 1
	}
	n := p.Size()
	original := make([]int, n)
	copy(original, assign)
	pending := make([]int, n)
	copy(pending, assign)
	for round := 0; round <= n; round++ {
		if leftover := p.resplitPending(pending, original); leftover > 0 {
			return p.pipelineClose(), fmt.Errorf("sched: %d conformations unassigned: %w", leftover, ErrAllDevicesLost)
		}
		work := 0
		for _, c := range pending {
			work += c
		}
		if work == 0 {
			break
		}
		start := p.pipelineNow()
		for tid := range n {
			if pending[tid] <= 0 || !p.aliveAt(tid) {
				continue
			}
			dev := p.ctx.Device(tid)
			dev.Idle(computeStream, start)
			dev.Idle(copyStream, start)
			if err := p.pipelinedShare(tid, pending[tid], b, depth); err == nil {
				pending[tid] = 0
			}
		}
	}
	return p.pipelineClose(), nil
}

// pipelinedShare runs one device's share split into depth chunks with
// copy/compute overlap, under the fault policy.
func (p *Pool) pipelinedShare(tid, n int, b Batch, depth int) error {
	dev := p.ctx.Device(tid)
	chunks := SplitEqual(n, depth)
	for _, c := range chunks {
		if c <= 0 {
			continue
		}
		// Chunk upload on the copy stream...
		up, err := p.runOp(tid, "", func() (cudasim.Event, error) {
			return dev.CopyToDevice(copyStream, c*b.BytesPerConformation)
		})
		if err != nil {
			return err
		}
		// ...kernel waits for its own data, not for other chunks'.
		dev.Idle(computeStream, up.End)
		l := b.Proto
		l.Conformations = c
		if _, err := p.runOp(tid, "", func() (cudasim.Event, error) {
			return dev.Launch(computeStream, l)
		}); err != nil {
			return err
		}
	}
	// Results come back once per generation, after the last kernel.
	dev.Idle(copyStream, dev.StreamClock(computeStream))
	_, err := p.runOp(tid, "", func() (cudasim.Event, error) {
		return dev.CopyToHost(copyStream, n*scoreBytes)
	})
	return err
}

// pipelineNow returns the latest clock across both streams of all devices.
func (p *Pool) pipelineNow() float64 {
	t := 0.0
	for _, d := range p.ctx.Devices() {
		if c := d.Synchronize(); c > t {
			t = c
		}
	}
	return t
}

// pipelineClose aligns surviving devices' streams on the latest clock
// across all devices and returns it.
func (p *Pool) pipelineClose() float64 {
	end := p.pipelineNow()
	for i, d := range p.ctx.Devices() {
		if p.aliveAt(i) {
			d.Idle(computeStream, end)
			d.Idle(copyStream, end)
		}
	}
	return end
}
