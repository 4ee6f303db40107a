package metrics_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/metascreen/metascreen/internal/metrics"
	"github.com/metascreen/metascreen/internal/metrics/metricstest"
)

func expose(t *testing.T, r *metrics.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteTo(&b, nil); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHammer drives every metric kind from 8 goroutines. Run under -race
// it is the data-race check; the final totals are exact, and an
// exposition taken mid-hammer must already be well formed (+Inf bucket ==
// _count included).
func TestHammer(t *testing.T) {
	const workers, perWorker = 8, 5000
	r := metrics.New()
	c := r.Counter("metascreen_events_total", "Events.")
	g := r.Gauge("metascreen_level", "Level.")
	f := r.FloatCounter("metascreen_seconds_total", "Seconds.")
	h := r.Histogram("metascreen_wait_seconds", "Wait.", []float64{1, 2})
	cv := r.CounterVec("metascreen_by_kind_total", "By kind.", "kind", "a")
	hv := r.HistogramVec("metascreen_by_class_seconds", "By class.", "class", []float64{1}, "high")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := string(rune('a' + w%3))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(2)
				g.Add(-1)
				f.Add(0.5)
				h.Observe(float64(i % 3))
				cv.With(kind).Inc()
				hv.With("high").Observe(0.25)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if err := metricstest.Lint(expose(t, r)); err != nil {
			t.Fatalf("mid-hammer exposition: %v", err)
		}
	}
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total || g.Value() != total || f.Value() != total/2 {
		t.Errorf("counter %d, gauge %d, float %g; want %d, %d, %d", c.Value(), g.Value(), f.Value(), total, total, total/2)
	}
	if got := cv.With("a").Value() + cv.With("b").Value() + cv.With("c").Value(); got != total {
		t.Errorf("vector children sum to %d, want %d", got, total)
	}
	out := expose(t, r)
	for _, want := range []string{
		"metascreen_events_total 40000\n",
		"metascreen_seconds_total 20000\n",
		`metascreen_wait_seconds_bucket{le="1"} 26672` + "\n", // i%3 in {0,1}: 3334 of each 5000
		`metascreen_wait_seconds_bucket{le="+Inf"} 40000` + "\n",
		"metascreen_wait_seconds_sum 39992\n",
		`metascreen_by_class_seconds_count{class="high"} 40000` + "\n",
		`metascreen_by_class_seconds_sum{class="high"} 10000` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestHistogramBuckets pins the boundary rule (v <= le is inside), the
// fate of NaN (+Inf bucket only) and of negatives (first bucket).
func TestHistogramBuckets(t *testing.T) {
	r := metrics.New()
	h := r.Histogram("metascreen_wait_seconds", "Wait.", []float64{0.5, 1})
	h.Observe(0.5) // == le: inside 0.5
	h.Observe(-3)
	h.Observe(1)
	h.Observe(math.Inf(+1))
	want := `# HELP metascreen_wait_seconds Wait.
# TYPE metascreen_wait_seconds histogram
metascreen_wait_seconds_bucket{le="0.5"} 2
metascreen_wait_seconds_bucket{le="1"} 3
metascreen_wait_seconds_bucket{le="+Inf"} 4
metascreen_wait_seconds_sum +Inf
metascreen_wait_seconds_count 4
`
	if got := expose(t, r); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	h.Observe(math.NaN())
	if got := expose(t, r); !strings.Contains(got, `le="1"} 3`) || !strings.Contains(got, `le="+Inf"} 5`) || !strings.Contains(got, "_sum NaN\n") {
		t.Errorf("NaN must land in +Inf only:\n%s", got)
	}
}

// TestVecOrder pins the one ordering rule behind all three label orders
// in use: registration-time values first, in that order and even at zero;
// values first seen later follow, sorted; a vector with neither writes
// HELP and TYPE only.
func TestVecOrder(t *testing.T) {
	r := metrics.New()
	fixed := r.CounterVec("metascreen_jobs_total", "Jobs.", "state", "done", "failed", "cancelled")
	late := r.CounterVec("metascreen_io_errors_total", "I/O errors.", "op")
	depth := r.GaugeVec("metascreen_depth", "Depth.", "class", "high")
	want := `# HELP metascreen_jobs_total Jobs.
# TYPE metascreen_jobs_total counter
metascreen_jobs_total{state="done"} 0
metascreen_jobs_total{state="failed"} 0
metascreen_jobs_total{state="cancelled"} 0
# HELP metascreen_io_errors_total I/O errors.
# TYPE metascreen_io_errors_total counter
# HELP metascreen_depth Depth.
# TYPE metascreen_depth gauge
metascreen_depth{class="high"} 0
`
	if got := expose(t, r); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	fixed.With("cancelled").Add(2_000_000) // must stay digits, never 2e+06
	fixed.With("zebra").Inc()
	fixed.With("aborted").Inc()
	late.With("sync").Inc()
	late.With("dirsync").Inc()
	late.With(`a"b`).Inc()
	depth.With("high").Set(7)
	want = `# HELP metascreen_jobs_total Jobs.
# TYPE metascreen_jobs_total counter
metascreen_jobs_total{state="done"} 0
metascreen_jobs_total{state="failed"} 0
metascreen_jobs_total{state="cancelled"} 2000000
metascreen_jobs_total{state="aborted"} 1
metascreen_jobs_total{state="zebra"} 1
# HELP metascreen_io_errors_total I/O errors.
# TYPE metascreen_io_errors_total counter
metascreen_io_errors_total{op="a\"b"} 1
metascreen_io_errors_total{op="dirsync"} 1
metascreen_io_errors_total{op="sync"} 1
# HELP metascreen_depth Depth.
# TYPE metascreen_depth gauge
metascreen_depth{class="high"} 7
`
	got := expose(t, r)
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if err := metricstest.Lint(got); err != nil {
		t.Error(err)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := metrics.New()
	r.Counter("metascreen_events_total", "Events.")
	defer func() {
		if recover() == nil {
			t.Error("registering metascreen_events_total twice did not panic")
		}
	}()
	r.Gauge("metascreen_events_total", "Events again.")
}

// TestParkedWriterHoldsNoLock: while one scrape is stuck in its writer,
// increments, a refresh and a second scrape all complete, and the stuck
// scrape reports its writer's error once released.
func TestParkedWriterHoldsNoLock(t *testing.T) {
	r := metrics.New()
	c := r.Counter("metascreen_events_total", "Events.")
	g := r.Gauge("metascreen_level", "Level.")
	w := metricstest.NewParkedWriter(errors.New("client went away"))
	done := make(chan error, 1)
	go func() { done <- r.WriteTo(w, nil) }()
	<-w.Entered

	c.Inc()
	var b bytes.Buffer
	if err := r.WriteTo(&b, func() { g.Set(4) }); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "metascreen_events_total 1\n") || !strings.Contains(out, "metascreen_level 4\n") {
		t.Errorf("second scrape:\n%s", out)
	}
	close(w.Release)
	if err := <-done; err == nil || err.Error() != "client went away" {
		t.Errorf("parked scrape returned %v, want the writer's error", err)
	}
}
