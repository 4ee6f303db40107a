package cudasim

import (
	"fmt"
	"sync"

	"github.com/metascreen/metascreen/internal/rng"
)

// Device is one simulated GPU: a spec plus a simulated timeline and memory
// accounting. Operations advance the timeline by their modeled duration and
// return Events with start/end timestamps. A Device is safe for concurrent
// use, but like a real CUDA context it is normally driven by a single host
// goroutine (the paper binds one OpenMP thread per GPU).
//
// A Device can carry a FaultPlan; operations then return typed errors
// (see fault.go) and the device may become fenced ("lost"), after which
// every operation fails immediately without advancing time.
type Device struct {
	// ID is the device index within its Context, as cudaSetDevice sees it.
	ID int
	// Spec is the hardware description.
	Spec DeviceSpec

	model CostModel

	mu        sync.Mutex
	streams   map[int]float64 // stream id -> stream clock, seconds
	allocated int64
	kernels   int     // kernels launched successfully, for introspection
	busyTime  float64 // total operation time across streams, for energy
	confsDone int64   // conformations evaluated by successful launches

	plan     FaultPlan
	faultRng *rng.Source // transient draws; nil when the plan injects none
	lost     bool
	lostAt   float64
}

// Event is a completed simulated operation on a device stream.
type Event struct {
	// Device is the device ID.
	Device int
	// Stream is the stream the operation ran on.
	Stream int
	// Start and End are simulated timestamps in seconds.
	Start, End float64
	// Label describes the operation.
	Label string
}

// Duration returns the simulated duration of the event.
func (e Event) Duration() float64 { return e.End - e.Start }

// DefaultStream is the stream used by operations that do not choose one.
const DefaultStream = 0

// newDevice constructs a device; use Context to create devices.
func newDevice(id int, spec DeviceSpec, model CostModel) *Device {
	return &Device{
		ID: id, Spec: spec, model: model,
		streams: map[int]float64{DefaultStream: 0},
	}
}

// SetFaultPlan arms (or, with the zero plan, disarms) fault injection on
// the device and rewinds any fault state so the plan replays from scratch.
func (d *Device) SetFaultPlan(p FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan = p
	d.lost = false
	d.lostAt = 0
	d.faultRng = nil
	if p.TransientRate > 0 {
		d.faultRng = rng.New(p.Seed)
	}
}

// Lost reports whether the device has been fenced by a permanent fault
// or a watchdog-detected hang.
func (d *Device) Lost() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lost
}

// ConformationsCompleted returns the number of conformations evaluated by
// launches that completed successfully.
func (d *Device) ConformationsCompleted() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.confsDone
}

// advance moves the given stream clock forward by dur and returns the
// event, applying the device's fault plan:
//
//   - a fenced device fails immediately without advancing time;
//   - an operation starting at or after HangAt never completes: the caller
//     is charged DefaultWatchdog and the device is fenced;
//   - an operation starting inside the throttle window is slowed by
//     1/ThrottleFactor;
//   - an operation that would run past FailAt aborts at FailAt and fences
//     the device;
//   - otherwise the operation completes, then may draw a transient error
//     (full time charged — the work ran and produced garbage).
func (d *Device) advance(stream int, dur float64, label string) (Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := d.streams[stream]
	if d.lost {
		ev := Event{Device: d.ID, Stream: stream, Start: start, End: start, Label: label}
		return ev, &DeviceError{Device: d.ID, Kind: FaultPermanent, Op: label, At: d.lostAt}
	}
	if d.plan.active() {
		if d.plan.HangAt > 0 && start >= d.plan.HangAt {
			end := start + DefaultWatchdog
			d.streams[stream] = end
			d.lost = true
			d.lostAt = end
			ev := Event{Device: d.ID, Stream: stream, Start: start, End: end, Label: label}
			return ev, &DeviceError{Device: d.ID, Kind: FaultHang, Op: label, At: end}
		}
		dur = d.plan.throttledDuration(start, dur)
		if d.plan.FailAt > 0 && start+dur > d.plan.FailAt {
			end := d.plan.FailAt
			if end < start {
				end = start
			}
			d.streams[stream] = end
			d.busyTime += end - start
			d.lost = true
			d.lostAt = end
			ev := Event{Device: d.ID, Stream: stream, Start: start, End: end, Label: label}
			return ev, &DeviceError{Device: d.ID, Kind: FaultPermanent, Op: label, At: end}
		}
	}
	end := start + dur
	d.streams[stream] = end
	d.busyTime += dur
	ev := Event{Device: d.ID, Stream: stream, Start: start, End: end, Label: label}
	if d.faultRng != nil && d.faultRng.Float64() < d.plan.TransientRate {
		return ev, &DeviceError{Device: d.ID, Kind: FaultTransient, Op: label, At: end}
	}
	return ev, nil
}

// Malloc reserves bytes of simulated device memory. It fails like
// cudaMalloc when the device is out of memory.
func (d *Device) Malloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("cudasim: negative allocation")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	capacity := int64(d.Spec.GlobalMemMB) * 1 << 20
	if d.allocated+bytes > capacity {
		return fmt.Errorf("cudasim: %s out of memory: %d + %d > %d bytes",
			d.Spec.Name, d.allocated, bytes, capacity)
	}
	d.allocated += bytes
	return nil
}

// Free releases bytes of simulated device memory.
func (d *Device) Free(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= bytes
	if d.allocated < 0 {
		d.allocated = 0
	}
}

// Allocated returns the simulated bytes currently allocated.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// CopyToDevice models a host-to-device transfer on a stream.
func (d *Device) CopyToDevice(stream int, bytes int) (Event, error) {
	return d.advance(stream, d.model.TransferTime(bytes), "h2d")
}

// CopyToHost models a device-to-host transfer on a stream.
func (d *Device) CopyToHost(stream int, bytes int) (Event, error) {
	return d.advance(stream, d.model.TransferTime(bytes), "d2h")
}

// Launch models the execution of a docking kernel on a stream. The kernel
// and conformation counters advance only on success.
func (d *Device) Launch(stream int, l ScoringLaunch) (Event, error) {
	dur := d.model.KernelTime(d.Spec, l)
	ev, err := d.advance(stream, dur, l.Kind.String())
	if err == nil {
		d.mu.Lock()
		d.kernels++
		d.confsDone += int64(l.Conformations)
		d.mu.Unlock()
	}
	return ev, err
}

// Idle advances a stream without work, modeling host-imposed waiting (for
// example a barrier with other devices).
func (d *Device) Idle(stream int, until float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.streams[stream] < until {
		d.streams[stream] = until
	}
}

// StreamClock returns the current simulated time of one stream.
func (d *Device) StreamClock(stream int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.streams[stream]
}

// Synchronize returns the simulated time at which all streams are idle,
// like cudaDeviceSynchronize.
func (d *Device) Synchronize() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := 0.0
	for _, c := range d.streams {
		if c > t {
			t = c
		}
	}
	return t
}

// Kernels returns the number of kernels launched so far.
func (d *Device) Kernels() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernels
}

// Reset rewinds all stream clocks and counters to zero, keeping memory
// allocations. Fault state rewinds too — the plan stays armed and replays
// identically, which is what makes faulted runs reproducible.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for s := range d.streams {
		d.streams[s] = 0
	}
	d.kernels = 0
	d.busyTime = 0
	d.confsDone = 0
	d.lost = false
	d.lostAt = 0
	if d.plan.TransientRate > 0 {
		d.faultRng = rng.New(d.plan.Seed)
	}
}

// Context owns the simulated devices of one node, playing the role of the
// CUDA runtime plus NVML for device discovery.
type Context struct {
	model   CostModel
	devices []*Device
}

// NewContext creates a node with one simulated device per spec, using the
// default cost model.
func NewContext(specs ...DeviceSpec) (*Context, error) {
	return NewContextWithModel(DefaultCostModel(), specs...)
}

// NewContextWithModel creates a node with a custom cost model.
func NewContextWithModel(model CostModel, specs ...DeviceSpec) (*Context, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cudasim: node with no devices")
	}
	c := &Context{model: model}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		c.devices = append(c.devices, newDevice(i, s, model))
	}
	return c, nil
}

// DeviceCount returns the number of devices, like cudaGetDeviceCount.
func (c *Context) DeviceCount() int { return len(c.devices) }

// Device returns device i, like cudaSetDevice selecting a context.
func (c *Context) Device(i int) *Device {
	if i < 0 || i >= len(c.devices) {
		panic(fmt.Sprintf("cudasim: device index %d out of range [0,%d)", i, len(c.devices)))
	}
	return c.devices[i]
}

// Devices returns all devices in index order.
func (c *Context) Devices() []*Device {
	out := make([]*Device, len(c.devices))
	copy(out, c.devices)
	return out
}

// Model returns the context's cost model.
func (c *Context) Model() CostModel { return c.model }

// Properties returns the spec of device i, like cudaGetDeviceProperties.
func (c *Context) Properties(i int) DeviceSpec { return c.Device(i).Spec }

// ResetAll rewinds every device's timeline.
func (c *Context) ResetAll() {
	for _, d := range c.devices {
		d.Reset()
	}
}
