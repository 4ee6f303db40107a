// Package trace is the observability recorder of the stack. It keeps one
// kind of record, the span: a named interval on a named track, in one of
// two clock domains (wall and simulated). One recorder holds a whole
// screening job's timeline — HTTP submission, per-ligand screens,
// metaheuristic generations and every simulated device operation — and
// exports it in Chrome trace format for chrome://tracing and Perfetto
// (chrome.go). The device timeline of one simulated node is the CatDevice
// spans on its DeviceTrack tracks; WriteGantt and Utilization render it.
package trace

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Clock domains. A span's timestamps are seconds on one of two clocks:
// the recorder's wall-clock epoch (real time) or the simulated device
// clock (modeled time). The Chrome exporter keeps the domains apart as two
// trace "processes" so mixed timelines stay readable.
const (
	// ClockWall is real time, in seconds since the recorder's epoch.
	ClockWall = "wall"
	// ClockSim is simulated time, in modeled seconds from zero.
	ClockSim = "sim"
)

// Span categories used across the stack. They are convention, not an
// enum — callers may add their own — but the service's job traces and the
// tests rely on these names.
const (
	CatJob        = "job"
	CatScreen     = "screen"
	CatLigand     = "ligand"
	CatGeneration = "generation"
	CatDevice     = "device"
	// CatShard marks distributed-coordinator spans: shard lifetimes,
	// re-splits, steals, hedges, and quarantine transitions.
	CatShard = "shard"
)

// Span is one named interval on a named track. The zero Clock means
// ClockWall. Start == End is an instant (exported as a Chrome instant
// event). Args carry correlation metadata (job ID, ligand name, ...).
type Span struct {
	// Track names the horizontal lane the span renders on ("job",
	// "lig:LIG-003/dev0", ...). Tracks are created on first use.
	Track string
	// Name is the span's label ("generation 7", "scoring", ...).
	Name string
	// Cat is the observability level (CatJob, CatLigand, ...).
	Cat string
	// Clock is the span's time domain: ClockWall (default) or ClockSim.
	Clock string
	// Start and End are seconds on the span's clock.
	Start, End float64
	// Args is optional correlation metadata; exported verbatim.
	Args map[string]string
}

// Duration returns the span's length in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// DeviceTrack names simulated device i's track, "dev<i>". A device
// operation is a CatDevice, ClockSim span on it ("warmup", "scoring",
// "h2d", ...), and a fault annotation ("resplit", ...) is an instant there.
func DeviceTrack(i int) string { return "dev" + strconv.Itoa(i) }

// deviceIndex returns i for a DeviceTrack(i) name.
func deviceIndex(track string) (int, bool) {
	i, err := strconv.Atoi(strings.TrimPrefix(track, "dev"))
	return i, err == nil && DeviceTrack(i) == track
}

// Recorder accumulates spans. It is safe for concurrent use; the zero
// value is ready.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
	epoch time.Time
}

// SetEpoch pins the wall-clock origin: Now() returns seconds since this
// instant. The service pins it to the job's submission time so a job's
// wall spans start at zero; tests pin it for byte-stable exports.
func (r *Recorder) SetEpoch(t time.Time) {
	r.mu.Lock()
	r.epoch = t
	r.mu.Unlock()
}

// Epoch returns the wall-clock origin, setting it to the current time on
// first use so Now() is always meaningful.
func (r *Recorder) Epoch() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch.IsZero() {
		r.epoch = time.Now()
	}
	return r.epoch
}

// Now returns the wall-clock reading in seconds since the epoch.
func (r *Recorder) Now() float64 { return time.Since(r.Epoch()).Seconds() }

// AddSpan appends a span.
func (r *Recorder) AddSpan(s Span) {
	if s.Clock == "" {
		s.Clock = ClockWall
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of all spans in insertion order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Merge folds a child recorder's spans into r with every track prefixed
// by prefix+"/". The screening layer uses this to give each ligand its own
// sub-timeline inside the job trace.
func (r *Recorder) Merge(child *Recorder, prefix string) {
	if child == nil {
		return
	}
	spans := child.Spans()
	for i := range spans {
		spans[i].Track = prefix + "/" + spans[i].Track
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// BusyByTrack sums span durations per track, restricted to one category
// ("" sums every category). The debug snapshot derives per-device
// utilization from this.
func (r *Recorder) BusyByTrack(cat string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Spans() {
		if cat == "" || s.Cat == cat {
			out[s.Track] += s.Duration()
		}
	}
	return out
}

// deviceRow is one device's row of the device timeline.
type deviceRow struct {
	device int
	busy   float64
	spans  []Span
}

// deviceRows collects the CatDevice spans on DeviceTrack tracks, one row
// per device in device-index order with its spans in recorded order, and
// the window they cover.
func (r *Recorder) deviceRows() (rows []deviceRow, start, end float64) {
	for _, s := range r.Spans() {
		dev, ok := deviceIndex(s.Track)
		if s.Cat != CatDevice || !ok {
			continue
		}
		if len(rows) == 0 {
			start, end = s.Start, s.End
		}
		start, end = min(start, s.Start), max(end, s.End)
		i := sort.Search(len(rows), func(i int) bool { return rows[i].device >= dev })
		if i == len(rows) || rows[i].device != dev {
			rows = slices.Insert(rows, i, deviceRow{device: dev})
		}
		rows[i].busy += s.Duration()
		rows[i].spans = append(rows[i].spans, s)
	}
	return rows, start, end
}

// DeviceUtilization is one device's busy fraction of the device
// timeline's window.
type DeviceUtilization struct {
	Device   int
	Fraction float64
}

// Utilization returns the busy fraction of each device that recorded a
// span, in device-index order. A recorder without device spans yields
// nil.
func (r *Recorder) Utilization() []DeviceUtilization {
	rows, start, end := r.deviceRows()
	if end <= start {
		return nil
	}
	out := make([]DeviceUtilization, len(rows))
	for i, row := range rows {
		out[i] = DeviceUtilization{Device: row.device, Fraction: row.busy / (end - start)}
	}
	return out
}

// WriteGantt renders a fixed-width text Gantt chart of the device
// timeline, one row per device, to w. width is the number of character
// cells; each operation is drawn with the first letter of its name.
func (r *Recorder) WriteGantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	rows, start, end := r.deviceRows()
	if end <= start {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	scale := float64(width) / (end - start)
	for _, dr := range rows {
		row := []byte(strings.Repeat(".", width))
		for _, s := range dr.spans {
			lo := int((s.Start - start) * scale)
			hi := min(int((s.End-start)*scale), width-1)
			mark := byte('#')
			if len(s.Name) > 0 {
				mark = s.Name[0]
			}
			for i := lo; i <= hi; i++ {
				row[i] = mark
			}
		}
		if _, err := fmt.Fprintf(w, "dev%-3d |%s| busy %.3fs\n", dr.device, row, dr.busy); err != nil {
			return err
		}
	}
	return nil
}

// ctxKey keys the recorder in a context.
type ctxKey struct{}

// NewContext returns a context carrying the recorder. The engine and the
// screening layers pick it up to record generation and ligand spans.
func NewContext(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder carried by ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
