package sched

import (
	"cmp"
	"errors"

	"github.com/metascreen/metascreen/internal/cudasim"
)

// Fault-tolerant execution. The paper's scheduling assumes devices never
// fail; this file adds the recovery policy around it: bounded retries for
// transient errors, fencing on permanent loss or hang, and a mid-generation
// re-split of the dead device's share onto the survivors with their warm-up
// weights renormalized (the dead device's weight drops to zero, which is
// exactly what redistributing proportionally to the surviving shares does).

// ErrAllDevicesLost is returned when work remains but every device has
// been fenced.
var ErrAllDevicesLost = errors.New("sched: all devices lost")

// maxRetries is the per-operation transient retry budget. A hang is
// charged cudasim.DefaultWatchdog by the device itself.
const maxRetries = 3

// FaultStats counts fault events observed by the pool.
type FaultStats struct {
	// Transients counts transient operation errors (including retried ones).
	Transients int64
	// Permanents counts devices fenced by permanent loss (or by exhausting
	// the transient retry budget).
	Permanents int64
	// Hangs counts devices fenced by watchdog-detected hangs.
	Hangs int64
	// Retries counts transient retry attempts.
	Retries int64
	// Resplits counts mid-run redistributions of a dead device's share.
	Resplits int64
}

// Faults returns the total number of device fault events.
func (s FaultStats) Faults() int64 { return s.Transients + s.Permanents + s.Hangs }

// FaultStats returns a snapshot of the fault counters.
func (p *Pool) FaultStats() FaultStats {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	return p.stats
}

// Alive returns a copy of the per-device liveness mask.
func (p *Pool) Alive() []bool {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	out := make([]bool, len(p.alive))
	copy(out, p.alive)
	return out
}

// AliveCount returns the number of devices not yet fenced.
func (p *Pool) AliveCount() int {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	n := 0
	for _, a := range p.alive {
		if a {
			n++
		}
	}
	return n
}

func (p *Pool) aliveAt(i int) bool {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	return i >= 0 && i < len(p.alive) && p.alive[i]
}

func (p *Pool) noteTransient() {
	p.fmu.Lock()
	p.stats.Transients++
	p.fmu.Unlock()
}

func (p *Pool) noteRetry() {
	p.fmu.Lock()
	p.stats.Retries++
	p.fmu.Unlock()
}

func (p *Pool) noteResplit() {
	p.fmu.Lock()
	p.stats.Resplits++
	p.fmu.Unlock()
}

// fence marks device i dead and counts it once under the given kind.
func (p *Pool) fence(i int, kind cudasim.FaultKind) {
	p.fmu.Lock()
	if i < 0 || i >= len(p.alive) || !p.alive[i] {
		p.fmu.Unlock()
		return
	}
	p.alive[i] = false
	if kind == cudasim.FaultHang {
		p.stats.Hangs++
	} else {
		p.stats.Permanents++
	}
	p.fmu.Unlock()
	p.log.Warn("device fenced", "device", i, "fault", kind.String())
}

// runOp executes one device operation with the fault policy applied:
// transient errors are retried up to the budget (each failed attempt's
// charged time is recorded as "fault:transient"); exhausting the budget or
// hitting a permanent error or hang fences the device. On success the
// event is recorded under label ("" keeps the device's own label) and
// returned.
func (p *Pool) runOp(tid int, label string, op func() (cudasim.Event, error)) (cudasim.Event, error) {
	for attempt := 0; ; attempt++ {
		ev, err := op()
		if err == nil {
			p.record(tid, cmp.Or(label, ev.Label), ev.Start, ev.End)
			return ev, nil
		}
		var de *cudasim.DeviceError
		if errors.As(err, &de) && ev.Duration() > 0 {
			p.record(tid, "fault:"+de.Kind.String(), ev.Start, ev.End)
		}
		if cudasim.IsTransient(err) {
			p.noteTransient()
			if attempt < maxRetries {
				p.noteRetry()
				continue
			}
			// Retry budget exhausted: the device keeps producing garbage,
			// so fence it and let the caller move the share elsewhere.
			p.fence(tid, cudasim.FaultPermanent)
			return ev, err
		}
		if errors.Is(err, cudasim.ErrHang) {
			p.fence(tid, cudasim.FaultHang)
		} else {
			p.fence(tid, cudasim.FaultPermanent)
		}
		return ev, err
	}
}

// scoreBytes is the download per conformation: one float64 score.
const scoreBytes = 8

// deviceShare runs one device's generation share (upload, kernel, download)
// on the default stream under the fault policy.
func (p *Pool) deviceShare(tid, n int, b Batch) error {
	dev := p.ctx.Device(tid)
	if _, err := p.runOp(tid, "", func() (cudasim.Event, error) {
		return dev.CopyToDevice(cudasim.DefaultStream, n*b.BytesPerConformation)
	}); err != nil {
		return err
	}
	l := b.Proto
	l.Conformations = n
	if _, err := p.runOp(tid, "", func() (cudasim.Event, error) {
		return dev.Launch(cudasim.DefaultStream, l)
	}); err != nil {
		return err
	}
	_, err := p.runOp(tid, "", func() (cudasim.Event, error) {
		return dev.CopyToHost(cudasim.DefaultStream, n*scoreBytes)
	})
	return err
}

// resplitPending moves pending work off dead devices, redistributing it to
// the survivors proportionally to their original shares (which encode the
// warm-up weights, so this renormalizes the weights with dead devices at
// zero). Returns the remaining unassignable count: nonzero only when no
// device is alive.
func (p *Pool) resplitPending(pending, original []int) int {
	alive := p.Alive()
	leftover := 0
	for i := range pending {
		if pending[i] > 0 && !p.aliveAt(i) {
			leftover += pending[i]
			pending[i] = 0
			t := p.ctx.Device(i).StreamClock(cudasim.DefaultStream)
			p.record(i, "resplit", t, t)
		}
	}
	if leftover == 0 {
		return 0
	}
	w := make([]float64, len(original))
	for i, o := range original {
		w[i] = float64(o)
	}
	extra := SplitOverAlive(leftover, w, alive)
	if extra == nil {
		return leftover
	}
	for i := range pending {
		pending[i] += extra[i]
	}
	p.noteResplit()
	p.log.Info("work resplit onto survivors", "conformations", leftover)
	return 0
}

// SplitOverAlive divides total proportionally to weights, but only among
// alive members; dead members get zero. Returns nil when nothing is alive.
// All-zero surviving weights fall back to an equal split over the alive
// members only.
//
// The pool uses it to redistribute a fenced device's share onto the
// surviving devices (the weights encode the warm-up throughput, so the
// dead device's weight renormalizes to zero); the distributed coordinator
// reuses it one level up to re-shard a dead worker node's unfinished
// ligands onto the surviving nodes with their observed throughputs as
// weights.
func SplitOverAlive(total int, weights []float64, alive []bool) []int {
	idx := make([]int, 0, len(alive))
	w := make([]float64, 0, len(alive))
	for i, a := range alive {
		if !a {
			continue
		}
		idx = append(idx, i)
		if i < len(weights) {
			w = append(w, weights[i])
		} else {
			w = append(w, 0)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	parts := SplitProportional(total, w)
	out := make([]int, len(alive))
	for j, i := range idx {
		out[i] = parts[j]
	}
	return out
}

// AssignAlive is Assign restricted to the devices still alive: the split
// is computed over the alive devices only (using their weights for
// Heterogeneous mode) and scattered back to full device-index positions,
// with dead devices assigned zero. Dynamic mode has no static assignment;
// AssignAlive panics for it like Assign does.
func AssignAlive(mode Mode, total int, alive []bool, weights []float64, gran int) []int {
	n := len(alive)
	out := make([]int, n)
	idx := make([]int, 0, n)
	for i, a := range alive {
		if a {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 || total <= 0 {
		return out
	}
	var parts []int
	switch mode {
	case Homogeneous:
		parts = RoundToGranularity(SplitEqual(total, len(idx)), gran)
	case Heterogeneous:
		w := make([]float64, len(idx))
		for j, i := range idx {
			if i < len(weights) {
				w[j] = weights[i]
			}
		}
		parts = RoundToGranularity(SplitProportional(total, w), gran)
	default:
		return Assign(mode, total, len(idx), nil, gran) // panics for Dynamic
	}
	for j, i := range idx {
		out[i] = parts[j]
	}
	return out
}
