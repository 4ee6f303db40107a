package sched

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
)

func batch() Batch {
	return Batch{
		Proto: cudasim.ScoringLaunch{
			Kind:                 cudasim.KernelScoring,
			PairsPerConformation: 146880,
		},
		BytesPerConformation: 56, // translation (24) + quaternion (32)
	}
}

func TestRunStaticBarrier(t *testing.T) {
	p := hertzPool(t)
	end := mustRun(t)(p.RunStatic([]int{1024, 1024}, batch()))
	if end <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// After the barrier every device sits at the same clock.
	for i, d := range p.Context().Devices() {
		if got := d.StreamClock(cudasim.DefaultStream); math.Abs(got-end) > 1e-15 {
			t.Errorf("device %d clock %v != barrier %v", i, got, end)
		}
	}
	if p.Now() != end {
		t.Errorf("Now() = %v, want %v", p.Now(), end)
	}
}

func TestRunStaticSlowestDeviceDominates(t *testing.T) {
	// Equal split on a heterogeneous pool: the barrier time equals what
	// the slow device needs, not the fast one.
	p := hertzPool(t)
	end := mustRun(t)(p.RunStatic([]int{1024, 1024}, batch()))

	solo := hertzPool(t)
	slowOnly := mustRun(t)(solo.RunStatic([]int{0, 1024}, batch()))
	if end < slowOnly-1e-12 {
		t.Errorf("barrier %v earlier than slow device alone %v", end, slowOnly)
	}
}

func TestHeterogeneousBeatsHomogeneousOnHertz(t *testing.T) {
	// The paper's headline effect (Tables 8-9): on K40c + GTX580,
	// proportional splitting beats the equal split by ~1.3-1.6x.
	total := 2048

	hom := hertzPool(t)
	tHom := mustRun(t)(hom.RunStatic(Assign(Homogeneous, total, 2, nil, 8), batch()))

	het := hertzPool(t)
	res := het.Warmup(batch().Proto.WithConformations(64), 8, 0, 1)
	het.Context().ResetAll() // compare pure generation times
	tHet := mustRun(t)(het.RunStatic(Assign(Heterogeneous, total, 2, res.Weights, 8), batch()))

	gain := tHom / tHet
	if gain < 1.2 || gain > 1.8 {
		t.Errorf("heterogeneous gain on Hertz = %v, want ~1.3-1.6", gain)
	}
}

func TestHeterogeneousGainSmallOnJupiter(t *testing.T) {
	// Jupiter's GPUs are all Fermi with similar throughput; the paper
	// reports only 1-6% gains there.
	total := 2112

	hom := jupiterPool(t)
	tHom := mustRun(t)(hom.RunStatic(Assign(Homogeneous, total, 6, nil, 8), batch()))

	het := jupiterPool(t)
	res := het.Warmup(batch().Proto.WithConformations(64), 8, 0, 1)
	het.Context().ResetAll()
	tHet := mustRun(t)(het.RunStatic(Assign(Heterogeneous, total, 6, res.Weights, 8), batch()))

	gain := tHom / tHet
	if gain < 1.0-1e-9 || gain > 1.2 {
		t.Errorf("heterogeneous gain on Jupiter = %v, want 1.0-1.2", gain)
	}
}

func TestRunDynamicCompletesAllWork(t *testing.T) {
	p := hertzPool(t)
	end := mustRun(t)(p.RunDynamic(1000, 64, batch()))
	if end <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// All devices end at the barrier.
	for i, d := range p.Context().Devices() {
		if got := d.StreamClock(cudasim.DefaultStream); math.Abs(got-end) > 1e-15 {
			t.Errorf("device %d clock %v != %v", i, got, end)
		}
	}
}

// TestRunDynamicPicksEarliestFinish: a chunk goes to the alive device
// predicted to finish it first, not to the one free first. A one-wave
// chunk finishes sooner on the GTX580 (device 1, the higher clock) than
// on the K40c, though both are free at the start; identical devices tie
// to the lower index.
func TestRunDynamicPicksEarliestFinish(t *testing.T) {
	const chunk = 32
	p := hertzPool(t)
	m := p.Context().Model()
	l := batch().Proto.WithConformations(chunk)
	if k40, gtx := m.KernelTime(cudasim.TeslaK40c, l), m.KernelTime(cudasim.GTX580, l); gtx >= k40 {
		t.Fatalf("GTX580 kernel %v not faster than K40c %v for one wave; the test is vacuous", gtx, k40)
	}
	mustRun(t)(p.RunDynamic(chunk, chunk, batch()))
	if k0, k1 := p.Context().Device(0).Kernels(), p.Context().Device(1).Kernels(); k0 != 0 || k1 != 1 {
		t.Errorf("kernels per device = [%d %d], want [0 1]", k0, k1)
	}

	ctx, err := cudasim.NewContext(cudasim.TeslaK40c, cudasim.TeslaK40c)
	if err != nil {
		t.Fatal(err)
	}
	twins := NewPool(ctx)
	mustRun(t)(twins.RunDynamic(chunk, chunk, batch()))
	if k0, k1 := ctx.Device(0).Kernels(), ctx.Device(1).Kernels(); k0 != 1 || k1 != 0 {
		t.Errorf("identical devices: kernels per device = [%d %d], want [1 0]", k0, k1)
	}
}

func TestRunDynamicNearHeterogeneousStatic(t *testing.T) {
	// Cooperative chunking should approach the proportional split (within
	// chunk-size slack) and clearly beat the equal split.
	total := 4096

	hom := hertzPool(t)
	tHom := mustRun(t)(hom.RunStatic(Assign(Homogeneous, total, 2, nil, 1), batch()))

	dyn := hertzPool(t)
	tDyn := mustRun(t)(dyn.RunDynamic(total, 64, batch()))

	if tDyn >= tHom {
		t.Errorf("dynamic (%v) not faster than homogeneous static (%v)", tDyn, tHom)
	}
}

func TestRunStaticPanicsOnWrongAssignment(t *testing.T) {
	p := hertzPool(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic for wrong assignment length")
		}
	}()
	p.RunStatic([]int{1, 2, 3}, batch())
}

func TestRunStaticSkipsZeroAssignments(t *testing.T) {
	p := hertzPool(t)
	p.RunStatic([]int{64, 0}, batch())
	if p.Context().Device(1).Kernels() != 0 {
		t.Error("zero-assigned device launched a kernel")
	}
	if p.Context().Device(0).Kernels() != 1 {
		t.Error("assigned device did not launch")
	}
}

func TestStragglerDevice(t *testing.T) {
	// An extreme straggler (2008-era Tesla C1060 next to a K40c): the
	// equal split is crippled by the slow card; both the warm-up-balanced
	// split and dynamic chunking recover most of the loss.
	c1060, ok := cudasim.SpecByName("Tesla C1060")
	if !ok {
		t.Fatal("C1060 missing from catalogue")
	}
	mk := func() *Pool {
		ctx, err := cudasim.NewContext(cudasim.TeslaK40c, c1060)
		if err != nil {
			t.Fatal(err)
		}
		return NewPool(ctx)
	}
	total := 4096

	hom := mk()
	tHom := mustRun(t)(hom.RunStatic(Assign(Homogeneous, total, 2, nil, 8), batch()))

	het := mk()
	w := het.Warmup(batch().Proto.WithConformations(1024), 8, 0, 1)
	het.Context().ResetAll()
	tHet := mustRun(t)(het.RunStatic(Assign(Heterogeneous, total, 2, w.Weights, 8), batch()))

	dyn := mk()
	tDyn := mustRun(t)(dyn.RunDynamic(total, 64, batch()))

	if tHet >= tHom || tDyn >= tHom {
		t.Errorf("straggler not mitigated: hom=%v het=%v dyn=%v", tHom, tHet, tDyn)
	}
	// The modeled throughput ratio is ~8x, so balancing should recover
	// at least 2x.
	if tHom/tHet < 2 {
		t.Errorf("heterogeneous gain %v under an 8x straggler, want >= 2", tHom/tHet)
	}
}

func TestGenerationsAccumulate(t *testing.T) {
	p := hertzPool(t)
	a := []int{512, 512}
	t1 := mustRun(t)(p.RunStatic(a, batch()))
	t2 := mustRun(t)(p.RunStatic(a, batch()))
	if t2 <= t1 {
		t.Errorf("second generation (%v) did not extend the timeline (%v)", t2, t1)
	}
	dt1, dt2 := t1, t2-t1
	if math.Abs(dt1-dt2) > 1e-9*dt1 {
		t.Errorf("identical generations took %v then %v", dt1, dt2)
	}
}
