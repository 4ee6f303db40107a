package sched

import (
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/trace"
)

// mustRun asserts a Run* call completed without losing the whole pool.
func mustRun(t *testing.T) func(float64, error) float64 {
	t.Helper()
	return func(end float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return end
	}
}

// confsDone sums successfully evaluated conformations across the pool.
func confsDone(p *Pool) int64 {
	var n int64
	for _, d := range p.Context().Devices() {
		n += d.ConformationsCompleted()
	}
	return n
}

// faultedHetRun warms up a Hertz pool, arms plan on the GTX580 (device 1),
// and runs one heterogeneous generation of total conformations. Returns
// the pool, its recorder and the barrier end time.
func faultedHetRun(t *testing.T, total int, plan cudasim.FaultPlan) (*Pool, *trace.Recorder, float64, error) {
	t.Helper()
	p := hertzPool(t)
	rec := &trace.Recorder{}
	p.SetRecorder(rec)
	w := p.Warmup(probe(), 8, 0, 1)
	p.Context().Device(1).SetFaultPlan(plan)
	assign := Assign(Heterogeneous, total, 2, w.Weights, 8)
	end, err := p.RunStatic(assign, batch())
	return p, rec, end, err
}

// TestHeterogeneousSurvivesDeviceLoss is the headline recovery scenario:
// the GTX580 of the Hertz node dies mid-generation under Heterogeneous
// scheduling, and the K40c absorbs its share.
func TestHeterogeneousSurvivesDeviceLoss(t *testing.T) {
	const total = 2048

	// Unfaulted two-device baseline (same warm-up charged).
	base := hertzPool(t)
	wb := base.Warmup(probe(), 8, 0, 1)
	tBase := mustRun(t)(base.RunStatic(Assign(Heterogeneous, total, 2, wb.Weights, 8), batch()))
	warmupConfs := confsDone(base) - total // warm-up kernels also count

	// Fault the GTX580 halfway between warm-up end and the baseline
	// makespan, while its generation share is in flight.
	probePool := hertzPool(t)
	probePool.Warmup(probe(), 8, 0, 1)
	failAt := probePool.Now() + (tBase-probePool.Now())/2

	p, rec, tFault, err := faultedHetRun(t, total, cudasim.FaultPlan{FailAt: failAt})
	if err != nil {
		t.Fatalf("faulted run did not complete: %v", err)
	}

	// (a) Every conformation was evaluated despite the loss.
	if got := confsDone(p); got < warmupConfs+total {
		t.Errorf("evaluated %d conformations, want >= %d", got, warmupConfs+total)
	}
	if !p.Context().Device(1).Lost() {
		t.Error("device 1 not fenced")
	}
	if alive := p.Alive(); !alive[0] || alive[1] {
		t.Errorf("alive mask = %v, want [true false]", alive)
	}

	// (b) Makespan stays within 2x the two-device baseline.
	if tFault > 2*tBase {
		t.Errorf("faulted makespan %v > 2x baseline %v", tFault, tBase)
	}
	if tFault <= tBase {
		t.Errorf("faulted makespan %v not slower than baseline %v", tFault, tBase)
	}

	// The recovery is visible in the stats and the trace.
	st := p.FaultStats()
	if st.Permanents < 1 {
		t.Errorf("Permanents = %d, want >= 1", st.Permanents)
	}
	if st.Resplits < 1 {
		t.Errorf("Resplits = %d, want >= 1", st.Resplits)
	}
	if countNamed(rec, "resplit") < 1 {
		t.Error("no resplit mark in the trace")
	}
	if countNamed(rec, "fault:permanent") < 1 {
		t.Error("no fault:permanent span in the trace")
	}
}

// countNamed returns the number of device spans named name.
func countNamed(rec *trace.Recorder, name string) int {
	n := 0
	for _, s := range rec.Spans() {
		if s.Cat == trace.CatDevice && s.Name == name {
			n++
		}
	}
	return n
}

// TestFaultedRunDeterministic: the same seed and fault plan produce the
// same timeline, span for span and in the same recorded order.
func TestFaultedRunDeterministic(t *testing.T) {
	pp := hertzPool(t)
	pp.Warmup(probe(), 8, 0, 1)
	plan := cudasim.FaultPlan{FailAt: pp.Now() * 1.1} // mid-generation
	run := func() ([]trace.Span, float64) {
		t.Helper()
		p, rec, end, err := faultedHetRun(t, 2048, plan)
		if err != nil {
			t.Fatalf("faulted run: %v", err)
		}
		if p.FaultStats().Permanents < 1 {
			t.Fatal("fault plan did not fire; the test is vacuous")
		}
		return rec.Spans(), end
	}
	e1, t1 := run()
	e2, t2 := run()
	if t1 != t2 {
		t.Errorf("makespans differ: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("traces differ: %d vs %d spans", len(e1), len(e2))
	}
}

// TestTransientRetriesRecover: a flaky device retries in place and the
// generation completes with no re-split.
func TestTransientRetriesRecover(t *testing.T) {
	p := hertzPool(t)
	p.Context().Device(1).SetFaultPlan(cudasim.FaultPlan{TransientRate: 0.5, Seed: 1})
	w := p.Warmup(probe(), 8, 0, 1)
	end, err := p.RunStatic(Assign(Heterogeneous, 1024, 2, w.Weights, 8), batch())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	st := p.FaultStats()
	if st.Transients < 1 || st.Retries < 1 {
		t.Errorf("stats = %+v, want transients and retries", st)
	}
	if st.Resplits != 0 || st.Permanents != 0 {
		t.Errorf("flaky-but-recoverable device was fenced: %+v", st)
	}
	if p.Context().Device(1).Lost() {
		t.Error("device 1 fenced despite retries succeeding")
	}
}

// TestTransientExhaustionFences: a device that fails every retry is
// treated as lost and its share is re-split.
func TestTransientExhaustionFences(t *testing.T) {
	p := hertzPool(t)
	p.Context().Device(1).SetFaultPlan(cudasim.FaultPlan{TransientRate: 0.999, Seed: 3})
	w := p.Warmup(probe(), 8, 0, 1)
	if !math.IsInf(w.Times[1], 1) {
		// The warm-up itself should already exhaust the budget; if not,
		// the generation below will.
		t.Logf("device 1 survived warm-up, weights = %v", w.Weights)
	}
	_, err := p.RunStatic(AssignAlive(Heterogeneous, 1024, p.Alive(), w.Weights, 8), batch())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !p.Context().Device(1).Lost() && p.aliveAt(1) {
		t.Error("persistently flaky device not fenced")
	}
	st := p.FaultStats()
	if st.Permanents < 1 {
		t.Errorf("Permanents = %d, want >= 1 (retry exhaustion)", st.Permanents)
	}
}

// TestHangFencedByWatchdog: a hanging device costs one watchdog interval,
// then the survivors finish the work.
func TestHangFencedByWatchdog(t *testing.T) {
	p := hertzPool(t)
	w := p.Warmup(probe(), 8, 0, 1)
	p.Context().Device(1).SetFaultPlan(cudasim.FaultPlan{HangAt: p.Now() + 1e-9})
	end, err := p.RunStatic(Assign(Heterogeneous, 2048, 2, w.Weights, 8), batch())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := p.FaultStats()
	if st.Hangs != 1 {
		t.Errorf("Hangs = %d, want 1", st.Hangs)
	}
	if st.Resplits < 1 {
		t.Errorf("Resplits = %d, want >= 1", st.Resplits)
	}
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	// The watchdog wait plus one K40c running everything bounds the
	// makespan: the hang is charged once, not per retry or per stream.
	if end < cudasim.DefaultWatchdog || end > cudasim.DefaultWatchdog+10 {
		t.Errorf("makespan %v, want one %vs watchdog plus the work", end, cudasim.DefaultWatchdog)
	}
}

// TestDynamicDrainsAroundDeadDevice: cooperative chunking requeues the
// failed chunk and the surviving device drains the queue.
func TestDynamicDrainsAroundDeadDevice(t *testing.T) {
	p := hertzPool(t)
	p.Warmup(probe(), 8, 0, 1)
	// The generation lasts roughly a third of the warm-up clock; 1.1x the
	// current time lands mid-run.
	p.Context().Device(1).SetFaultPlan(cudasim.FaultPlan{FailAt: p.Now() * 1.1})
	total := 2048
	before := confsDone(p)
	end, err := p.RunDynamic(total, 64, batch())
	if err != nil {
		t.Fatalf("dynamic run: %v", err)
	}
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	if got := confsDone(p) - before; got < int64(total) {
		t.Errorf("evaluated %d of %d conformations", got, total)
	}
	if !p.Context().Device(1).Lost() {
		t.Error("device 1 not lost")
	}
	if p.AliveCount() != 1 {
		t.Errorf("AliveCount = %d, want 1", p.AliveCount())
	}
}

// TestAllDevicesLost: when every device dies the run reports it instead
// of spinning or claiming success.
func TestAllDevicesLost(t *testing.T) {
	p := hertzPool(t)
	for i := 0; i < 2; i++ {
		p.Context().Device(i).SetFaultPlan(cudasim.FaultPlan{FailAt: 1e-12})
	}
	_, err := p.RunStatic([]int{512, 512}, batch())
	if !errors.Is(err, ErrAllDevicesLost) {
		t.Errorf("RunStatic err = %v, want ErrAllDevicesLost", err)
	}
	p2 := hertzPool(t)
	for i := 0; i < 2; i++ {
		p2.Context().Device(i).SetFaultPlan(cudasim.FaultPlan{FailAt: 1e-12})
	}
	if _, err := p2.RunDynamic(512, 64, batch()); !errors.Is(err, ErrAllDevicesLost) {
		t.Errorf("RunDynamic err = %v, want ErrAllDevicesLost", err)
	}
}

// TestWarmupFailedDeviceGetsZeroWeight: a device dead before warm-up has
// infinite time, zero Percent and zero weight; the survivor takes it all.
func TestWarmupFailedDeviceGetsZeroWeight(t *testing.T) {
	p := hertzPool(t)
	p.Context().Device(1).SetFaultPlan(cudasim.FaultPlan{FailAt: 1e-12})
	w := p.Warmup(probe(), 8, 0, 1)
	if !math.IsInf(w.Times[1], 1) {
		t.Errorf("dead device warm-up time = %v, want +Inf", w.Times[1])
	}
	if w.Weights[1] != 0 || w.Percent[1] != 0 {
		t.Errorf("dead device weight=%v percent=%v, want 0", w.Weights[1], w.Percent[1])
	}
	if math.Abs(w.Weights[0]-1) > 1e-12 {
		t.Errorf("survivor weight = %v, want 1", w.Weights[0])
	}
	assign := AssignAlive(Heterogeneous, 1000, p.Alive(), w.Weights, 8)
	if assign[0] != 1000 || assign[1] != 0 {
		t.Errorf("AssignAlive = %v, want all on device 0", assign)
	}
}

// TestPipelinedRunSurvivesDeviceLoss mirrors the headline scenario on the
// dual-stream pipelined executor.
func TestPipelinedRunSurvivesDeviceLoss(t *testing.T) {
	p := hertzPool(t)
	w := p.Warmup(probe(), 8, 0, 1)
	p.Context().Device(1).SetFaultPlan(cudasim.FaultPlan{FailAt: p.Now() * 1.1})
	before := confsDone(p)
	end, err := p.RunStaticPipelined(Assign(Heterogeneous, 2048, 2, w.Weights, 8), batch(), 4)
	if err != nil {
		t.Fatalf("pipelined run: %v", err)
	}
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	if got := confsDone(p) - before; got < 2048 {
		t.Errorf("evaluated %d of 2048 conformations", got)
	}
	if p.FaultStats().Resplits < 1 {
		t.Error("no re-split recorded")
	}
}

// TestChaosMatrix runs the CI chaos scenarios: METASCREEN_CHAOS selects
// one fault kind (transient, permanent, hang); unset runs all three.
func TestChaosMatrix(t *testing.T) {
	kinds := []string{"transient", "permanent", "hang"}
	if k := os.Getenv("METASCREEN_CHAOS"); k != "" {
		kinds = []string{k}
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := hertzPool(t)
			w := p.Warmup(probe(), 8, 0, 1)
			var plan cudasim.FaultPlan
			switch kind {
			case "transient":
				plan = cudasim.FaultPlan{TransientRate: 0.3, Seed: 11}
			case "permanent":
				plan = cudasim.FaultPlan{FailAt: p.Now() * 1.1}
			case "hang":
				plan = cudasim.FaultPlan{HangAt: p.Now() * 1.05}
			default:
				t.Fatalf("unknown METASCREEN_CHAOS kind %q", kind)
			}
			p.Context().Device(1).SetFaultPlan(plan)
			total := 2048
			before := confsDone(p)
			_, err := p.RunStatic(Assign(Heterogeneous, total, 2, w.Weights, 8), batch())
			if err != nil {
				t.Fatalf("chaos %s run: %v", kind, err)
			}
			if got := confsDone(p) - before; got < int64(total) {
				t.Errorf("chaos %s: evaluated %d of %d", kind, got, total)
			}
			if st := p.FaultStats(); st.Faults() < 1 {
				t.Errorf("chaos %s: no fault observed: %+v", kind, st)
			}
		})
	}
}

func TestSplitProportionalDegenerateWeights(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	// All degenerate: fall back to the equal split.
	got := SplitProportional(10, []float64{nan, inf, -1})
	if got[0]+got[1]+got[2] != 10 {
		t.Errorf("degenerate split = %v, does not conserve total", got)
	}
	for _, v := range got {
		if v < 3 || v > 4 {
			t.Errorf("degenerate split = %v, want near-equal parts", got)
		}
	}
	// Mixed: the only sane weight takes everything.
	got = SplitProportional(10, []float64{nan, 2, inf})
	if got[1] != 10 || got[0] != 0 || got[2] != 0 {
		t.Errorf("mixed split = %v, want all on index 1", got)
	}
}

func TestAssignAlive(t *testing.T) {
	// One dead device under Heterogeneous: everything to the survivor.
	a := AssignAlive(Heterogeneous, 100, []bool{true, false}, []float64{0.6, 0.4}, 1)
	if a[0] != 100 || a[1] != 0 {
		t.Errorf("het one-dead = %v", a)
	}
	// Homogeneous over three devices with the middle one dead.
	a = AssignAlive(Homogeneous, 90, []bool{true, false, true}, nil, 1)
	if a[0] != 45 || a[1] != 0 || a[2] != 45 {
		t.Errorf("hom one-dead = %v", a)
	}
	// Nothing alive: all zeros.
	a = AssignAlive(Heterogeneous, 90, []bool{false, false}, []float64{1, 1}, 1)
	if a[0] != 0 || a[1] != 0 {
		t.Errorf("none-alive = %v", a)
	}
	// Dynamic still has no static assignment.
	defer func() {
		if recover() == nil {
			t.Error("AssignAlive(Dynamic) did not panic")
		}
	}()
	AssignAlive(Dynamic, 90, []bool{true, true}, nil, 1)
}
