package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRecorderConcurrentStress hammers one recorder from 64 goroutines —
// half writing device spans, half writing generation spans — and asserts
// nothing is lost and each track's spans stay monotone and
// non-overlapping. Each goroutine plays one device (or one span track)
// appending strictly increasing intervals; the recorder must preserve
// per-writer insertion order, so any reordering or loss is a bug. Run with
// -race (CI does).
func TestRecorderConcurrentStress(t *testing.T) {
	const (
		writers = 64
		perG    = 500
	)
	r := &Recorder{}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Device writer: device g, back-to-back intervals.
				for i := 0; i < perG; i++ {
					addDevice(r, g, "op", float64(i), float64(i)+1)
				}
				return
			}
			// Span writer: its own track, back-to-back sim spans.
			track := fmt.Sprintf("track-%d", g)
			for i := 0; i < perG; i++ {
				start := float64(i)
				r.AddSpan(Span{
					Track: track, Name: "span", Cat: CatGeneration,
					Clock: ClockSim, Start: start, End: start + 1,
				})
			}
		}(g)
	}
	wg.Wait()

	all := r.Spans()
	if got, want := len(all), writers*perG; got != want {
		t.Fatalf("lost spans: got %d, want %d", got, want)
	}

	// Per track (a device or a generation writer): exactly perG spans, in
	// monotone non-overlapping order.
	byTrack := map[string][]Span{}
	devices := 0
	for _, s := range all {
		if s.Cat == CatDevice && len(byTrack[s.Track]) == 0 {
			devices++
		}
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	if len(byTrack) != writers || devices != writers/2 {
		t.Fatalf("got %d tracks (%d devices), want %d (%d)", len(byTrack), devices, writers, writers/2)
	}
	for track, spans := range byTrack {
		if len(spans) != perG {
			t.Fatalf("track %s: %d spans, want %d", track, len(spans), perG)
		}
		prevEnd := 0.0
		for i, s := range spans {
			if s.Start != float64(i) || s.End != s.Start+1 || s.Start < prevEnd {
				t.Fatalf("track %s: span %d out of order: [%g, %g]", track, i, s.Start, s.End)
			}
			prevEnd = s.End
		}
	}

	// The utilization and busy-time paths must also hold up after the
	// stampede.
	if u := r.Utilization(); len(u) != writers/2 {
		t.Fatalf("utilization over %d devices, want %d", len(u), writers/2)
	}
	busy := r.BusyByTrack("")
	if len(busy) != writers {
		t.Fatalf("busy tracks: %d, want %d", len(busy), writers)
	}
	for track, b := range busy {
		if b != perG {
			t.Fatalf("track %s busy %g, want %d", track, b, perG)
		}
	}
}

// TestRecorderConcurrentMerge folds 16 child recorders into a parent from
// 16 goroutines, asserting no spans are lost and prefixes are applied.
func TestRecorderConcurrentMerge(t *testing.T) {
	const children = 16
	parent := &Recorder{}
	var wg sync.WaitGroup
	for c := 0; c < children; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			child := &Recorder{}
			addDevice(child, 0, "scoring", 0, 1)
			child.AddSpan(Span{Track: "generations", Name: "generation 1",
				Cat: CatGeneration, Clock: ClockSim, Start: 0, End: 1})
			parent.Merge(child, fmt.Sprintf("lig:%03d", c))
		}(c)
	}
	wg.Wait()
	spans := parent.Spans()
	if got, want := len(spans), children*2; got != want {
		t.Fatalf("merged %d spans, want %d", got, want)
	}
	devices := 0
	for _, s := range spans {
		if prefix, _, ok := strings.Cut(s.Track, "/"); !ok || !strings.HasPrefix(prefix, "lig:") {
			t.Fatalf("span track %q missing merge prefix", s.Track)
		}
		if s.Cat == CatDevice {
			devices++
		}
	}
	if devices != children {
		t.Fatalf("%d device spans, want %d", devices, children)
	}
}
