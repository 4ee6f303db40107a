package cudasim

import (
	"errors"
	"fmt"
)

// Fault injection for the simulated devices. Real multi-GPU nodes fail in
// well-known ways — ECC errors and driver resets (transient), Xid errors
// and falling off the bus (permanent), kernels that never return (hangs),
// and thermal throttling (the device keeps working, slower). A FaultPlan
// scripts those behaviours deterministically onto one device so the
// scheduler's recovery path can be exercised, measured and replayed: the
// same plan and seed always produce the same fault sequence.

// FaultKind classifies a device fault.
type FaultKind int

const (
	// FaultTransient is a recoverable error (ECC, spurious launch
	// failure): retrying the operation may succeed.
	FaultTransient FaultKind = iota
	// FaultPermanent is an unrecoverable device loss: every subsequent
	// operation fails immediately.
	FaultPermanent
	// FaultHang is an operation that never completes; the caller observes
	// it only through its watchdog deadline, after which the device is
	// fenced like a permanent loss.
	FaultHang
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultHang:
		return "hang"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Sentinel errors for errors.Is matching. Every fault surfaces as a
// *DeviceError, which unwraps to exactly one of these.
var (
	// ErrTransient matches recoverable device errors.
	ErrTransient = errors.New("cudasim: transient device error")
	// ErrDeviceLost matches permanent device loss.
	ErrDeviceLost = errors.New("cudasim: device lost")
	// ErrHang matches watchdog-detected hangs.
	ErrHang = errors.New("cudasim: device operation hung")
)

// DeviceError is a typed device fault: which device, what kind, during
// which operation, and at which simulated time it was detected.
type DeviceError struct {
	// Device is the failing device's ID.
	Device int
	// Kind classifies the fault.
	Kind FaultKind
	// Op labels the operation that observed it ("h2d", "scoring", ...).
	Op string
	// At is the simulated detection time in seconds.
	At float64
}

// Error implements error.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("cudasim: device %d: %s fault during %s at t=%.6fs", e.Device, e.Kind, e.Op, e.At)
}

// Unwrap maps the fault kind to its sentinel so errors.Is works.
func (e *DeviceError) Unwrap() error {
	switch e.Kind {
	case FaultTransient:
		return ErrTransient
	case FaultHang:
		return ErrHang
	}
	return ErrDeviceLost
}

// IsTransient reports whether err is a retryable device fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsPermanent reports whether err fenced the device for good (permanent
// loss or a watchdog-detected hang).
func IsPermanent(err error) bool {
	return errors.Is(err, ErrDeviceLost) || errors.Is(err, ErrHang)
}

// DefaultWatchdog is the per-operation hang deadline, in simulated
// seconds: a hung operation is charged this much before its device is
// fenced.
const DefaultWatchdog = 60.0

// FaultPlan scripts the faults of one device. The zero value injects
// nothing. All times are simulated seconds on the device's timeline.
type FaultPlan struct {
	// FailAt, when positive, kills the device permanently: the operation
	// in flight at FailAt aborts there and every later operation fails
	// immediately with a permanent DeviceError.
	FailAt float64
	// HangAt, when positive, makes every operation starting at or after
	// it hang: the operation never completes, the caller is charged the
	// watchdog deadline, and the device is fenced.
	HangAt float64
	// TransientRate is the per-operation probability of a transient
	// error in [0,1). The operation's time is still charged (the work ran
	// and produced garbage); an immediate retry draws independently.
	TransientRate float64
	// Seed derives the transient draw stream; equal plans and seeds
	// reproduce the same fault sequence.
	Seed uint64
	// ThrottleFactor, when in (0,1), is a thermal-slowdown throughput
	// multiplier: operations starting inside the throttle window take
	// 1/ThrottleFactor times as long.
	ThrottleFactor float64
	// ThrottleFrom and ThrottleUntil bound the throttle window;
	// ThrottleUntil == 0 leaves it open-ended.
	ThrottleFrom, ThrottleUntil float64
}

// active reports whether the plan injects anything.
func (p FaultPlan) active() bool {
	return p.FailAt > 0 || p.HangAt > 0 || p.TransientRate > 0 || p.ThrottleFactor > 0
}

// throttledDuration scales an operation's duration when it starts inside
// the throttle window.
func (p FaultPlan) throttledDuration(start, dur float64) float64 {
	f := p.ThrottleFactor
	if f <= 0 || f == 1 {
		return dur
	}
	if start < p.ThrottleFrom {
		return dur
	}
	if p.ThrottleUntil > 0 && start >= p.ThrottleUntil {
		return dur
	}
	return dur / f
}
