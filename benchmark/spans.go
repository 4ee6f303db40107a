package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from the
// outside. Start and End are seconds since the recorder's epoch; Parent is
// the ID of the span that caused this one (0 = root) and Job groups the
// spans of one request.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Job    string  `json:"job,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) duration() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// tracing-off state: every method is a no-op, so workload code calls it
// unconditionally and the untraced run pays one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its ID (0 when tracing is off).
func (r *recorder) begin(layer, name, job string, parent int) int {
	return r.beginAt(layer, name, job, parent, time.Now())
}

// beginAt opens a span that started at t (an open-loop job starts when it
// was due, not when it was sent).
func (r *recorder) beginAt(layer, name, job string, parent int, t time.Time) int {
	return r.add(layer, name, job, parent, t, t, 0)
}

// end closes the span at the current time.
func (r *recorder) end(id int) { r.endAt(id, time.Now(), 0) }

// endAt closes the span at t and attaches a byte count.
func (r *recorder) endAt(id int, t time.Time, bytes int64) {
	if r == nil || id == 0 {
		return
	}
	at := t.Sub(r.epoch).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = at
	r.spans[id-1].Bytes = bytes
	r.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (r *recorder) add(layer, name, job string, parent int, start, end time.Time, bytes int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Job: job, Layer: layer, Name: name,
		Start: start.Sub(r.epoch).Seconds(), End: end.Sub(r.epoch).Seconds(), Bytes: bytes,
	})
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// writeFile dumps the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	spans := r.snapshot()
	if spans == nil {
		return nil
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its direct children (children may overlap each other
// and may stick out of the parent; only coverage inside the parent counts).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.duration() - coverage(children[s.ID], s.Start, s.End)
	}
	return out
}

// coverage is the length of the union of the spans' intervals clipped to
// [lo, hi].
func coverage(spans []span, lo, hi float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]float64) int {
		switch {
		case x[0] < y[0]:
			return -1
		case x[0] > y[0]:
			return 1
		}
		return 0
	})
	total, end := 0.0, lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// layerSelfSeconds sums self time per layer: the "where did the time go"
// table of a traced run.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}
