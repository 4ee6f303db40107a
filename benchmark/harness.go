package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// check is one correctness assertion about a run's outputs.
type check struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	Info string `json:"info,omitempty"`
}

// runResult is everything one run of one workload produced. The driver's
// result line carries Correct, Attempted, Failed and Metrics; the rest goes
// to the report file and the human-readable listing.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Timings holds each latency-like series as median + reportable tail +
	// sample count, in the unit the name says.
	Timings map[string]timing `json:"timings,omitempty"`
	// Exact holds values that must repeat bit for bit at equal seed and
	// sizes: ranking digests, evaluation counts, simulated statistics.
	Exact map[string]string `json:"exact,omitempty"`
	// Aux carries measurements an untraced run takes for its traced twin
	// (a child coordinator's peak memory, which the traced run cannot see).
	Aux    map[string]float64 `json:"aux,omitempty"`
	Checks []check            `json:"checks"`
	// LayerSelfSeconds is the traced run's self time per layer.
	LayerSelfSeconds map[string]float64 `json:"layer_self_seconds,omitempty"`
	WallSeconds      float64            `json:"wall_seconds"`
}

// run is the mutable state of one workload execution.
type run struct {
	h       *harness
	cfg     runConfig
	rec     *recorder // nil when tracing is off
	metrics *metricSet
	res     *runResult
}

// runConfig selects and sizes one run.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Traced   bool
	Sizes    sizes
	// Reference is the untraced result of the same workload, seed and
	// sizes, when the caller already has one: the traced run then skips its
	// own shortened untraced reference pass and compares digests with it.
	Reference *runResult
}

func (r *run) check(name string, pass bool, format string, args ...any) {
	r.res.Checks = append(r.res.Checks, check{Name: name, Pass: pass, Info: fmt.Sprintf(format, args...)})
	if !pass {
		r.h.logf("CHECK FAILED %s/%s: %s", r.cfg.Workload, name, fmt.Sprintf(format, args...))
	}
}

func (r *run) timing(name string, samples []float64) timing {
	t := summarize(samples)
	r.res.Timings[name] = t
	return t
}

func (r *run) exact(name, value string) { r.res.Exact[name] = value }

// finish seals the result: a run is correct when every check passed and no
// operation failed.
func (r *run) finish(started time.Time) *runResult {
	r.res.Metrics = r.metrics.values
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	for _, c := range r.res.Checks {
		r.res.Correct = r.res.Correct && c.Pass
	}
	if r.rec != nil {
		r.res.LayerSelfSeconds = layerSelfSeconds(r.rec.snapshot())
	}
	r.res.WallSeconds = time.Since(started).Seconds()
	return r.res
}

// harness owns what outlives a single run: the work directory, the built
// server binary, and every child process and temp dir that must be gone
// when the command exits, whatever the exit path.
type harness struct {
	log     io.Writer
	workDir string // build outputs and data dirs, inside the checkout
	outDir  string // spans, child stderr, report

	buildOnce sync.Once
	serverBin string
	buildErr  error
	buildS    float64

	mu       sync.Mutex
	children []*child
	tmpDirs  []string
}

func newHarness(workDir, outDir string, log io.Writer) (*harness, error) {
	for _, d := range []string{workDir, outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return &harness{log: log, workDir: workDir, outDir: outDir}, nil
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.log, "benchmark: "+format+"\n", args...)
}

// tempDir makes a directory under the work dir that cleanup removes.
func (h *harness) tempDir(pattern string) (string, error) {
	d, err := os.MkdirTemp(h.workDir, pattern)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.tmpDirs = append(h.tmpDirs, d)
	h.mu.Unlock()
	return d, nil
}

// cleanup kills every child still alive and removes every temp dir. It is
// safe to call more than once and from a signal handler goroutine.
func (h *harness) cleanup() {
	h.mu.Lock()
	children, dirs := h.children, h.tmpDirs
	h.children, h.tmpDirs = nil, nil
	h.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// newRun prepares the bookkeeping shared by every workload.
func (h *harness) newRun(cfg runConfig) *run {
	defs := endToEnd
	if cfg.Traced {
		defs = perLayer
	}
	r := &run{h: h, cfg: cfg, metrics: newMetricSet(defs)}
	if cfg.Traced {
		r.rec = newRecorder()
	}
	r.res = &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced,
		Timings: map[string]timing{}, Exact: map[string]string{},
	}
	return r
}

// runWorkload executes one workload once and writes its spans (traced runs)
// to the output directory.
func (h *harness) runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	started := time.Now()
	r := h.newRun(cfg)
	if wait := cfg.Sizes.SettleMax; wait > 0 {
		h.logf("%s: cores settled after %.2fs", cfg.Workload, settleCPU(wait).Seconds())
	}
	var err error
	switch cfg.Workload {
	case wlScreenM1, wlScreenM4:
		err = r.runScreen(ctx)
	case wlTablesModeled:
		err = r.runTables(ctx)
	case wlServiceOpen:
		err = r.runServiceOpen(ctx)
	case wlDistSmall, wlDistLarge:
		err = r.runDist(ctx)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res := r.finish(started)
	if r.rec != nil {
		path := filepath.Join(h.outDir, fmt.Sprintf("spans-%s.json", cfg.Workload))
		if werr := r.rec.writeFile(path); werr != nil {
			return nil, fmt.Errorf("write spans: %w", werr)
		}
	}
	return res, nil
}

// setupRepeats is how often a run sets up: only the untraced run reports
// setup_s, so the traced run sets up once.
func (r *run) setupRepeats(n int) int {
	if r.cfg.Traced {
		return 1
	}
	return n
}

// measureSetup runs setup n times and returns the median duration, keeping
// only the last set-up alive: teardown undoes one set-up and runs after each
// of the first n-1. Repeating inside one run is what keeps setup_s steady.
func measureSetup(n int, setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(secs), nil
}
