package cudasim

import (
	"errors"
	"math"
	"testing"
)

func scoringProbe(confs int) ScoringLaunch {
	return ScoringLaunch{Kind: KernelScoring, Conformations: confs, PairsPerConformation: 10000}
}

func TestFaultZeroPlanNeverErrs(t *testing.T) {
	ctx := testContext(t, GTX580)
	d := ctx.Device(0)
	d.SetFaultPlan(FaultPlan{})
	if _, err := d.CopyToDevice(DefaultStream, 1<<20); err != nil {
		t.Fatalf("h2d: %v", err)
	}
	if _, err := d.Launch(DefaultStream, scoringProbe(64)); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := d.CopyToHost(DefaultStream, 512); err != nil {
		t.Fatalf("d2h: %v", err)
	}
	if d.Lost() {
		t.Error("device lost with zero plan")
	}
}

func TestFaultPermanentClampsAndFences(t *testing.T) {
	// Measure the clean duration first, then kill the device halfway
	// through the same launch.
	clean := testContext(t, GTX580).Device(0)
	ev := mustOp(t)(clean.Launch(DefaultStream, scoringProbe(1024)))
	dur := ev.Duration()

	d := testContext(t, GTX580).Device(0)
	d.SetFaultPlan(FaultPlan{FailAt: dur / 2})
	fev, err := d.Launch(DefaultStream, scoringProbe(1024))
	if err == nil {
		t.Fatal("launch past FailAt did not error")
	}
	if !IsPermanent(err) || !errors.Is(err, ErrDeviceLost) {
		t.Errorf("error not permanent: %v", err)
	}
	if fev.End != dur/2 {
		t.Errorf("aborted event ends at %v, want clamp to FailAt %v", fev.End, dur/2)
	}
	if !d.Lost() {
		t.Error("device not fenced after permanent fault")
	}
	if got := d.ConformationsCompleted(); got != 0 {
		t.Errorf("aborted launch counted %d conformations", got)
	}
	// Every later operation fails immediately, without advancing time.
	before := d.StreamClock(DefaultStream)
	ev2, err2 := d.CopyToDevice(DefaultStream, 1<<20)
	if err2 == nil || !IsPermanent(err2) {
		t.Errorf("op on lost device returned %v", err2)
	}
	if ev2.Duration() != 0 || d.StreamClock(DefaultStream) != before {
		t.Error("op on lost device advanced the clock")
	}
	var de *DeviceError
	if !errors.As(err2, &de) || de.Kind != FaultPermanent || de.Device != 0 {
		t.Errorf("typed error = %+v", de)
	}
}

func TestFaultHangChargesWatchdog(t *testing.T) {
	d := testContext(t, GTX580).Device(0)
	d.SetFaultPlan(FaultPlan{HangAt: 1e-12})
	// First op starts at t=0 < HangAt, so it completes; the next starts
	// past HangAt and hangs.
	first := mustOp(t)(d.Launch(DefaultStream, scoringProbe(64)))
	hev, err := d.Launch(DefaultStream, scoringProbe(64))
	if !errors.Is(err, ErrHang) {
		t.Fatalf("second launch: %v, want hang", err)
	}
	if math.Abs(hev.Duration()-DefaultWatchdog) > 1e-12 {
		t.Errorf("hang charged %v, want the %vs watchdog", hev.Duration(), DefaultWatchdog)
	}
	if hev.Start != first.End {
		t.Errorf("hang started at %v, want %v", hev.Start, first.End)
	}
	if !d.Lost() {
		t.Error("device not fenced after hang")
	}
}

func TestFaultThrottleSlowsWindow(t *testing.T) {
	clean := testContext(t, GTX580).Device(0)
	dur := mustOp(t)(clean.Launch(DefaultStream, scoringProbe(512))).Duration()

	d := testContext(t, GTX580).Device(0)
	d.SetFaultPlan(FaultPlan{ThrottleFactor: 0.5, ThrottleFrom: 0, ThrottleUntil: dur * 3})
	slow := mustOp(t)(d.Launch(DefaultStream, scoringProbe(512)))
	if math.Abs(slow.Duration()-2*dur) > 1e-12*dur {
		t.Errorf("throttled duration %v, want %v (2x)", slow.Duration(), 2*dur)
	}
	// Outside the window the device runs at full speed again.
	d.Idle(DefaultStream, dur*3)
	fast := mustOp(t)(d.Launch(DefaultStream, scoringProbe(512)))
	if math.Abs(fast.Duration()-dur) > 1e-12*dur {
		t.Errorf("post-window duration %v, want %v", fast.Duration(), dur)
	}
}

func TestFaultTransientDeterministicAndReplayable(t *testing.T) {
	plan := FaultPlan{TransientRate: 0.4, Seed: 42}
	draw := func(d *Device) []bool {
		out := make([]bool, 32)
		for i := range out {
			_, err := d.Launch(DefaultStream, scoringProbe(8))
			if err != nil && !IsTransient(err) {
				t.Fatalf("unexpected non-transient error: %v", err)
			}
			out[i] = err != nil
		}
		return out
	}

	d1 := testContext(t, GTX580).Device(0)
	d1.SetFaultPlan(plan)
	d2 := testContext(t, GTX580).Device(0)
	d2.SetFaultPlan(plan)
	a, b := draw(d1), draw(d2)
	some := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between equal plans", i)
		}
		some = some || a[i]
	}
	if !some {
		t.Error("rate 0.4 over 32 draws produced no transient")
	}
	// Reset rewinds the fault stream: the same device replays identically.
	d1.Reset()
	c := draw(d1)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("draw %d differs after Reset", i)
		}
	}
}

func TestFaultTransientChargesTime(t *testing.T) {
	// A transient failure still charges the full operation time: the work
	// ran, it just produced garbage.
	d := testContext(t, GTX580).Device(0)
	d.SetFaultPlan(FaultPlan{TransientRate: 0.999, Seed: 1})
	ev, err := d.Launch(DefaultStream, scoringProbe(256))
	if !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if ev.Duration() <= 0 {
		t.Error("transient failure charged no time")
	}
	if d.Lost() {
		t.Error("transient failure fenced the device")
	}
	if d.ConformationsCompleted() != 0 {
		t.Error("failed launch counted its conformations")
	}
}

func TestConformationsCompletedCounts(t *testing.T) {
	d := testContext(t, GTX580).Device(0)
	mustOp(t)(d.Launch(DefaultStream, scoringProbe(64)))
	mustOp(t)(d.Launch(DefaultStream, scoringProbe(100)))
	if got := d.ConformationsCompleted(); got != 164 {
		t.Errorf("ConformationsCompleted = %d, want 164", got)
	}
	d.Reset()
	if d.ConformationsCompleted() != 0 {
		t.Error("Reset kept the conformation count")
	}
}

func TestFaultKindStringsAndHelpers(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultTransient: "transient",
		FaultPermanent: "permanent",
		FaultHang:      "hang",
	} {
		if k.String() != want {
			t.Errorf("FaultKind %d = %q", int(k), k.String())
		}
	}
	if FaultKind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
	hang := &DeviceError{Device: 3, Kind: FaultHang, Op: "scoring", At: 1.5}
	if !IsPermanent(hang) || IsTransient(hang) {
		t.Error("hang misclassified")
	}
	if hang.Error() == "" {
		t.Error("empty error string")
	}
}
