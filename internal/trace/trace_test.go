package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// addDevice records one device operation the way a scheduling pool does.
func addDevice(r *Recorder, dev int, name string, start, end float64) {
	r.AddSpan(Span{Track: DeviceTrack(dev), Name: name, Cat: CatDevice, Clock: ClockSim, Start: start, End: end})
}

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	if len(r.Spans()) != 0 {
		t.Error("fresh recorder not empty")
	}
	addDevice(&r, 0, "scoring", 0, 2)
	r.AddSpan(Span{Track: "job", Name: "queued", Cat: CatJob, Start: 0, End: 1})
	spans := r.Spans()
	if len(spans) != 2 || spans[0].Duration() != 2 || spans[0].Clock != ClockSim {
		t.Errorf("Spans = %v", spans)
	}
	if spans[1].Clock != ClockWall {
		t.Errorf("zero clock stored as %q, want %q", spans[1].Clock, ClockWall)
	}
	spans[0].Name = "changed"
	if r.Spans()[0].Name != "scoring" {
		t.Error("Spans returned the recorder's own slice")
	}
}

func TestDeviceTrack(t *testing.T) {
	for _, i := range []int{0, 3, 12} {
		if got, ok := deviceIndex(DeviceTrack(i)); !ok || got != i {
			t.Errorf("deviceIndex(DeviceTrack(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, track := range []string{"dev", "dev01", "dev+1", "devx", "lig:A/dev0", "generations"} {
		if _, ok := deviceIndex(track); ok {
			t.Errorf("%q read as a device track", track)
		}
	}
}

// TestUtilizationDeviceOrder: rows are devices in index order (dev2 before
// dev10, which string order would swap), each device's busy time is the
// sum of its spans, and only CatDevice spans on device tracks count.
func TestUtilizationDeviceOrder(t *testing.T) {
	var r Recorder
	addDevice(&r, 10, "scoring", 0, 3)
	addDevice(&r, 2, "h2d", 0, 1)
	addDevice(&r, 10, "h2d", 3, 4)
	addDevice(&r, 2, "resplit", 1, 1)
	r.AddSpan(Span{Track: "generations", Name: "generation 1", Cat: CatGeneration, Clock: ClockSim, Start: 0, End: 8})
	r.AddSpan(Span{Track: "lig:A/dev0", Name: "scoring", Cat: CatDevice, Clock: ClockSim, Start: 0, End: 8})
	u := r.Utilization()
	if len(u) != 2 {
		t.Fatalf("utilization over %d devices, want 2", len(u))
	}
	if u[0] != (DeviceUtilization{2, 0.25}) || u[1] != (DeviceUtilization{10, 1}) {
		t.Errorf("utilization = %v, want [{2 0.25} {10 1}]", u)
	}
}

// TestSpanAndUtilization: a device's utilization is its busy time over
// the window from the first device span's start to the last one's end.
func TestSpanAndUtilization(t *testing.T) {
	var r Recorder
	if r.Utilization() != nil {
		t.Error("empty utilization not nil")
	}
	addDevice(&r, 0, "scoring", 1, 5)
	addDevice(&r, 1, "scoring", 1, 3)
	u := r.Utilization()
	if math.Abs(u[0].Fraction-1.0) > 1e-12 || math.Abs(u[1].Fraction-0.5) > 1e-12 {
		t.Errorf("utilization = %v", u)
	}
}

func TestConcurrentAdd(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				addDevice(&r, dev, "scoring", float64(i), float64(i+1))
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.Spans()); n != 800 {
		t.Errorf("%d spans, want 800", n)
	}
}

func TestWriteGantt(t *testing.T) {
	var r Recorder
	var sb strings.Builder
	if err := r.WriteGantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty chart missing placeholder")
	}
	addDevice(&r, 10, "scoring", 0, 1)
	addDevice(&r, 1, "h2d", 0.5, 1)
	sb.Reset()
	if err := r.WriteGantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "dev1   |" + strings.Repeat(".", 20) + strings.Repeat("h", 20) + "| busy 0.500s\n" +
		"dev10  |" + strings.Repeat("s", 40) + "| busy 1.000s\n"
	if out != want {
		t.Errorf("chart:\n%s\nwant:\n%s", out, want)
	}
}
