// Package metrics is metascreen's one Prometheus text-exposition writer:
// a Registry of families written in registration order, with an integer
// counter/gauge, a float counter, a fixed-bucket histogram and a
// one-label vector of either. A metric is added with one declaration
// (r.Counter(name, help)) and used through the handle it returns
// (handle.Inc()); nothing else knows the exposition format.
//
// Increments are lock-free atomics. A scrape renders into a buffer and
// hands it to the writer in one Write, so a slow /metrics client can
// never stall the code being measured.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric families in registration order. Register every
// family before the first WriteTo; registration is not synchronised.
type Registry struct {
	// scrape serialises refresh+render so two scrapes cannot interleave
	// their gauge stores. Inc/Add/Observe never take it.
	scrape   sync.Mutex
	families []family
}

type family struct {
	name, help, kind string
	m                metric
}

// metric appends its sample lines to b; labels is "" or `key="value"`.
type metric interface {
	write(b *bytes.Buffer, name, labels string)
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// add registers one family and returns its handle. A duplicate name is a
// programming error and panics.
func add[T metric](r *Registry, name, help, kind string, m T) T {
	for _, f := range r.families {
		if f.name == name {
			panic("metrics: duplicate family " + name)
		}
	}
	r.families = append(r.families, family{name, help, kind, m})
	return m
}

// Counter registers a monotonically increasing integer.
func (r *Registry) Counter(name, help string) *Int { return add(r, name, help, "counter", new(Int)) }

// Gauge registers an integer that can go up and down or be Set.
func (r *Registry) Gauge(name, help string) *Int { return add(r, name, help, "gauge", new(Int)) }

// FloatCounter registers a monotonically increasing float.
func (r *Registry) FloatCounter(name, help string) *Float {
	return add(r, name, help, "counter", new(Float))
}

// Histogram registers a histogram with the given ascending upper bounds
// (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return add(r, name, help, "histogram", newHistogram(buckets))
}

// CounterVec registers integer counters split by one label. The values
// named here are always written, in this order, zero or not; values first
// seen through With follow them, sorted.
func (r *Registry) CounterVec(name, help, label string, values ...string) *Vec[*Int] {
	return add(r, name, help, "counter", newVec(label, values, func() *Int { return new(Int) }))
}

// GaugeVec is CounterVec for gauges.
func (r *Registry) GaugeVec(name, help, label string, values ...string) *Vec[*Int] {
	return add(r, name, help, "gauge", newVec(label, values, func() *Int { return new(Int) }))
}

// HistogramVec is CounterVec for histograms sharing one bucket layout.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64, values ...string) *Vec[*Histogram] {
	return add(r, name, help, "histogram", newVec(label, values, func() *Histogram { return newHistogram(buckets) }))
}

// WriteTo renders every family and hands the result to w in one Write,
// returning its error. refresh, if non-nil, runs first under the scrape
// lock: it is where gauges are Set from a single state snapshot. No lock
// is held while w is written.
func (r *Registry) WriteTo(w io.Writer, refresh func()) error {
	var b bytes.Buffer
	r.scrape.Lock()
	if refresh != nil {
		refresh()
	}
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.m.write(&b, f.name, "")
	}
	r.scrape.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

// sample appends one `name{labels} value` line.
func sample(b *bytes.Buffer, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" " + value + "\n")
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Int is an integer counter or gauge. It prints as a plain decimal, so a
// large total never turns into 2e+06 under a reader that expects digits.
type Int struct{ v atomic.Int64 }

func (c *Int) Inc()         { c.v.Add(1) }
func (c *Int) Add(n int64)  { c.v.Add(n) }
func (c *Int) Set(n int64)  { c.v.Store(n) }
func (c *Int) Value() int64 { return c.v.Load() }

func (c *Int) write(b *bytes.Buffer, name, labels string) {
	sample(b, name, labels, strconv.FormatInt(c.Value(), 10))
}

// Float is a float counter (seconds totals, histogram sums).
type Float struct{ bits atomic.Uint64 }

func (f *Float) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *Float) Value() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *Float) write(b *bytes.Buffer, name, labels string) {
	sample(b, name, labels, formatFloat(f.Value()))
}

// Histogram is a fixed-bucket histogram. Cumulative counts are derived
// when written, and _count is their total, so the +Inf bucket and _count
// agree even in a scrape taken while observations land.
type Histogram struct {
	buckets []float64      // ascending upper bounds; +Inf implicit
	counts  []atomic.Int64 // one per bucket plus the +Inf overflow
	sum     Float
}

func newHistogram(buckets []float64) *Histogram {
	if !sort.Float64sAreSorted(buckets) {
		panic("metrics: histogram buckets must ascend")
	}
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe counts v in the first bucket with v <= le; NaN lands in +Inf.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.buckets, v)].Add(1)
	h.sum.Add(v)
}

func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	cum := int64(0)
	for i := range h.counts {
		le := math.Inf(+1)
		if i < len(h.buckets) {
			le = h.buckets[i]
		}
		cum += h.counts[i].Load()
		sample(b, name+"_bucket", prefix+"le="+strconv.Quote(formatFloat(le)), strconv.FormatInt(cum, 10))
	}
	h.sum.write(b, name+"_sum", labels)
	sample(b, name+"_count", labels, strconv.FormatInt(cum, 10))
}

// Vec is a family split by one label.
type Vec[T metric] struct {
	label string
	child func() T

	mu    sync.Mutex // guards kids and order; never held across an io.Writer call
	fixed int        // order[:fixed] are the registration-time values
	order []string   // write order: fixed values, then later ones sorted
	kids  map[string]T
}

func newVec[T metric](label string, values []string, child func() T) *Vec[T] {
	v := &Vec[T]{label: label, child: child, fixed: len(values), order: slices.Clone(values), kids: map[string]T{}}
	for _, val := range values {
		v.kids[val] = child()
	}
	return v
}

// With returns the child for one label value, creating it on first use.
func (v *Vec[T]) With(value string) T {
	v.mu.Lock()
	defer v.mu.Unlock()
	k, ok := v.kids[value]
	if !ok {
		k = v.child()
		v.kids[value] = k
		i := v.fixed + sort.SearchStrings(v.order[v.fixed:], value)
		v.order = slices.Insert(v.order, i, value)
	}
	return k
}

func (v *Vec[T]) write(b *bytes.Buffer, name, _ string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		v.kids[val].write(b, name, v.label+"="+strconv.Quote(val))
	}
}
