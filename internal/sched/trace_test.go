package sched

import (
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/trace"
)

func TestPoolRecordsTimeline(t *testing.T) {
	p := hertzPool(t)
	var rec trace.Recorder
	p.SetRecorder(&rec)

	res := p.Warmup(probe(), 4, 0, 1)
	if res.Times[0] <= 0 {
		t.Fatal("warm-up failed")
	}
	p.RunStatic(Assign(Heterogeneous, 2048, 2, res.Weights, 8), batch())

	// Busy time per device track and operation name.
	busy := map[string]map[string]float64{}
	for _, s := range rec.Spans() {
		if s.Cat != trace.CatDevice || s.Clock != trace.ClockSim {
			t.Fatalf("span %+v is not a simulated device span", s)
		}
		if busy[s.Track] == nil {
			busy[s.Track] = map[string]float64{}
		}
		busy[s.Track][s.Name] += s.Duration()
	}
	if len(busy) != 2 {
		t.Fatalf("spans on %d tracks, want the two device tracks", len(busy))
	}
	for i := range 2 {
		ops := busy[trace.DeviceTrack(i)]
		if ops["warmup"] <= 0 {
			t.Errorf("device %d has no warm-up time", i)
		}
		if ops["scoring"] <= 0 {
			t.Errorf("device %d has no scoring time", i)
		}
		if ops["h2d"] <= 0 || ops["d2h"] <= 0 {
			t.Errorf("device %d missing transfer spans", i)
		}
	}

	var sb strings.Builder
	if err := rec.WriteGantt(&sb, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dev0") {
		t.Error("gantt missing device row")
	}
}

func TestHeterogeneousSplitBalancesUtilization(t *testing.T) {
	// With the proportional split, both devices should be busy a similar
	// fraction of the generation (that is the whole point).
	balanced := hertzPool(t)
	var recBal trace.Recorder
	balanced.SetRecorder(&recBal)
	w := balanced.Warmup(probe(), 8, 0, 1)
	balanced.Context().ResetAll()
	recBal = trace.Recorder{} // drop warm-up spans
	balanced.SetRecorder(&recBal)
	balanced.RunStatic(Assign(Heterogeneous, 4096, 2, w.Weights, 8), batch())

	equal := hertzPool(t)
	var recEq trace.Recorder
	equal.SetRecorder(&recEq)
	equal.RunStatic(Assign(Homogeneous, 4096, 2, nil, 8), batch())

	gap := func(r *trace.Recorder) float64 {
		u := r.Utilization()
		if len(u) != 2 {
			t.Fatalf("utilization for %d devices", len(u))
		}
		d := u[0].Fraction - u[1].Fraction
		if d < 0 {
			d = -d
		}
		return d
	}
	if gb, ge := gap(&recBal), gap(&recEq); gb >= ge {
		t.Errorf("balanced utilization gap %.3f not below equal-split gap %.3f", gb, ge)
	}
}
