package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/service"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	s := summarize(samples)
	if s.N != 200 || s.Median != 100.5 || s.TailPercentile != 95 {
		t.Fatalf("summarize = %+v", s)
	}
	// Exactly ten samples lie beyond the reported tail.
	beyond := 0
	for _, v := range samples {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p95 = %v, want 10", beyond, s.Tail)
	}
	if few := summarize([]float64{3, 1, 2}); few.TailPercentile != 0 || few.Tail != 3 || few.Median != 2 {
		t.Errorf("summarize of 3 samples = %+v", few)
	}
}

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) is [1.0, 2.0, 4.0].
	if got := quartileSpread([]float64{1, 2, 4}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("quartileSpread(1,2,4) = %v, want 1.5", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("quartileSpread of one value = %v", got)
	}
}

// fakeClock only moves when something sleeps on it or a send stalls.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	const interval = 25 * time.Millisecond
	var jobs []*loadJob
	schedule(context.Background(), clk, start, interval, 5, func(i int, due time.Time) {
		jobs = append(jobs, &loadJob{index: i, due: due, sent: clk.Now()})
		if i == 1 {
			clk.Sleep(60 * time.Millisecond) // the send stalls
		}
	})
	wantLate := []float64{0, 0, 35, 10, 0}
	for i, j := range jobs {
		if want := start.Add(time.Duration(i) * interval); !j.due.Equal(want) {
			t.Errorf("job %d due %v, want %v: a stall must not move later due times", i, j.due, want)
		}
		if got := j.lateMs(); math.Abs(got-wantLate[i]) > 1e-9 {
			t.Errorf("job %d sent %.3f ms late, want %.0f", i, got, wantLate[i])
		}
	}
	// A job that was sent 35 ms late and then took 20 ms is a 55 ms job.
	jobs[2].seen = jobs[2].sent.Add(20 * time.Millisecond)
	if got := jobs[2].latencyMs(); math.Abs(got-55) > 1e-9 {
		t.Errorf("latency %.3f ms, want 55 (measured from the due time)", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "core", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "forcefield", Start: 1, End: 4},
		{ID: 3, Parent: 1, Layer: "forcefield", Start: 3, End: 6},  // overlaps span 2
		{ID: 4, Parent: 1, Layer: "forcefield", Start: 9, End: 12}, // sticks out of the parent
		{ID: 5, Parent: 2, Layer: "wal", Start: 1, End: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 4, 2: 2, 3: 3, 4: 3, 5: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelfSeconds(spans)
	if layers["core"] != 4 || layers["forcefield"] != 8 || layers["wal"] != 1 {
		t.Errorf("layer self seconds = %v", layers)
	}
}

func TestRecorderOffIsNoOp(t *testing.T) {
	var rec *recorder
	id := rec.begin("core", "x", "", 0)
	rec.end(id)
	if id != 0 || rec.snapshot() != nil {
		t.Errorf("nil recorder recorded something")
	}
	on := newRecorder()
	a := on.begin("core", "outer", "j", 0)
	b := on.begin("wal", "inner", "j", a)
	on.end(b)
	on.end(a)
	got := on.snapshot()
	if len(got) != 2 || got[1].Parent != a || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range workloadNames {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("workload name %q malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q has malformed unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q has direction %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// BENCHMARK.json is the contract; the tables in metrics.go are what the
// program reports. They must say the same thing.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var bf benchmarkFile
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %+v\nprogram %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	runs := 4 + 22*len(bf.Workloads)
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("contract limits exceeded: %d workloads, %d per-layer, %d end-to-end (%d runs)", len(bf.Workloads), len(bf.PerLayer), len(bf.EndToEnd), runs)
	}
}

func TestRankingProblem(t *testing.T) {
	good := []service.RankEntry{{Rank: 1, Ligand: "A", Score: -3}, {Rank: 2, Ligand: "B", Score: -3}, {Rank: 3, Ligand: "C", Score: 1}}
	if p := rankingProblem(good, []string{"C", "A", "B"}); p != "" {
		t.Errorf("good ranking rejected: %s", p)
	}
	for name, bad := range map[string][]service.RankEntry{
		"missing":  good[:2],
		"twice":    {good[0], good[0], good[2]},
		"unsorted": {good[2], good[0], good[1]},
		"ties":     {good[1], good[0], good[2]},
		"nan":      {good[0], good[1], {Ligand: "C", Score: math.NaN()}},
		"stranger": {good[0], good[1], {Ligand: "D", Score: 1}},
	} {
		if rankingProblem(bad, []string{"A", "B", "C"}) == "" {
			t.Errorf("%s ranking accepted", name)
		}
	}
	if digest(good) == digest([]service.RankEntry{good[1], good[0], good[2]}) {
		t.Error("digest ignores order")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"slower", lower, steady, []float64{112, 111, 113, 112, 112}, verdictRegression},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, verdictBetter},
		{"rate drop", higher, steady, []float64{88, 89, 87, 88, 88}, verdictRegression},
		{"rate within bound", higher, steady, []float64{95, 96, 94, 95, 95}, verdictOK},
		{"noisy", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, verdictUnresolved},
		{"noisy but all better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictBetter},
	} {
		if got, _, _ := judge(c.def, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestReportRoundTrips(t *testing.T) {
	rep := &report{
		Env:  envInfo{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.22", Commit: "abc", DataDirFS: "ext4"},
		Seed: 7, Seconds: 10,
		Runs: []*runResult{{
			Workload: wlScreenM1, Seed: 7, Seconds: 10, Correct: true, Attempted: 4,
			Metrics: map[string]metricValue{mLigandsPS: {Value: 1.2034, Unit: "1/s"}},
			Timings: map[string]timing{"unit_ms": {N: 4, Median: 2.5, Tail: 3}},
			Exact:   map[string]string{"ranking_digest_unit0": "00ff"},
			Checks:  []check{{Name: "c", Pass: true, Info: "i"}},
		}},
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeJSONFile(path, rep); err != nil {
		t.Fatal(err)
	}
	var back report
	if err := readJSONFile(path, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("report changed in a round trip:\n%+v\n%+v", rep.Runs[0], back.Runs[0])
	}
	var out bytes.Buffer
	if code := compareReports(rep, &back, endToEnd[1:2], &out); code != 0 {
		t.Errorf("a report compared with itself exits %d:\n%s", code, out.String())
	}
	back.Runs[0].Exact["ranking_digest_unit0"] = "00fe"
	if code := compareReports(rep, &back, endToEnd[1:2], io.Discard); code == 0 {
		t.Error("a changed digest must fail compare")
	}
}

// testHarness builds a harness whose work and output dirs die with the test.
func testHarness(t *testing.T) *harness {
	t.Helper()
	dir := t.TempDir()
	h, err := newHarness(filepath.Join(dir, "work"), filepath.Join(dir, "out"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.cleanup)
	return h
}

// Every workload function runs end to end at toy sizes, untraced and then
// traced against its untraced twin: all checks pass, nothing fails, every
// metric of the contract is reported, and spans reach the output directory.
func TestWorkloadsAtToySizes(t *testing.T) {
	h := testHarness(t)
	ctx := context.Background()
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			cfg := runConfig{Workload: wl, Seed: 5, Seconds: 0.1, Sizes: toySizes()}
			plain, err := h.runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s untraced: %v", wl, err)
			}
			cfg.Traced, cfg.Reference = true, plain
			traced, err := h.runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s traced: %v", wl, err)
			}
			for _, res := range []*runResult{plain, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v", wl, res.Traced, res.Correct, res.Attempted, res.Failed, res.Checks)
				}
			}
			for _, d := range endToEnd {
				if v, ok := plain.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s: end-to-end metric %s = %+v", wl, d.Name, v)
				}
			}
			if len(plain.Metrics) != len(endToEnd) || len(traced.Metrics) != len(perLayer) {
				t.Errorf("%s: %d end-to-end and %d per-layer metrics reported", wl, len(plain.Metrics), len(traced.Metrics))
			}
			if _, err := os.Stat(filepath.Join(h.outDir, "spans-"+wl+".json")); err != nil {
				t.Errorf("%s: spans not written: %v", wl, err)
			}
		})
	}
	h.mu.Lock()
	left := len(h.children)
	h.mu.Unlock()
	if left != 0 {
		t.Errorf("%d children still registered after the runs", left)
	}
}

// A traced run that does not reproduce its untraced twin's ranking must make
// the command exit non-zero.
func TestWrongDigestFailsTheRun(t *testing.T) {
	h := testHarness(t)
	cfg := runConfig{Workload: wlScreenM4, Seed: 5, Seconds: 0.1, Sizes: toySizes()}
	plain, err := h.runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exitCode(plain) != 0 {
		t.Fatalf("untraced toy run is not correct: %+v", plain.Checks)
	}
	plain.Exact["ranking_digest_unit0"] = "0000000000000000"
	cfg.Traced, cfg.Reference = true, plain
	traced, err := h.runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Correct || exitCode(plain, traced) == 0 {
		t.Errorf("a wrong expected digest left the run correct: %+v", traced.Checks)
	}
}

func TestResultLineShape(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "no_such_workload"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if code := realMain([]string{"compare", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("compare with one file exits %d", code)
	}
	line, err := json.Marshal(resultLine(&runResult{Correct: true, Attempted: 3, Metrics: map[string]metricValue{mSetup: {Value: 0.5, Unit: "s"}}}))
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(line, &generic); err != nil {
		t.Fatal(err)
	}
	if len(generic) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", generic)
	}
}
