package sched

import "github.com/metascreen/metascreen/internal/cudasim"

// Pipelined execution: CUDA programs hide transfer latency by splitting a
// batch into chunks and overlapping chunk k's host-to-device copy (on a
// copy stream) with chunk k-1's kernel (on a compute stream). This file
// models that optimization, which RunStaticPipelined runs at depth > 1;
// the gain over the plain barrier executor is bounded by the transfer
// fraction of the generation, which the block-granularity ablation
// quantifies.

const (
	computeStream = cudasim.DefaultStream
	copyStream    = 1
)

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
