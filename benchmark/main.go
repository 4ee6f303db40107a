// Command benchmark is the repository's benchmark: six named workloads from
// the scoring kernel to a two-worker cluster, gated end-to-end metrics,
// per-layer probes and an outside-in traced run. See README.md in this
// directory for why each workload exists and how the metrics relate.
//
// Usage (from the repository root):
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last stdout line is the result object
//	go run ./benchmark [-seed n] [-seconds s] [-repeat k] [-out dir]
//	    every workload: k untraced runs, then one traced run; writes
//	    <out>/report.json
//	go run ./benchmark compare a.json b.json
//	    judge report b against report a with the bounds in BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
)

// workDirName holds build outputs, data dirs and reports. It sits inside
// the checkout (the benchmark may write nowhere else) and is git-ignored.
const workDirName = ".bench_build"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all, untraced then traced)")
	seed := fs.Uint64("seed", 2016, "workload seed: equal seeds generate equal inputs")
	seconds := fs.Float64("seconds", 10, "how long each run measures")
	traced := fs.Int("trace", 0, "with -workload: 1 runs the traced run and reports per-layer metrics")
	repeat := fs.Int("repeat", 1, "without -workload: untraced runs per workload (median and spread are reported)")
	outDir := fs.String("out", filepath.Join(workDirName, "out"), "directory for spans, child stderr logs and report.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -repeat at least 1")
		return 2
	}

	// The load generator and the in-process workloads are sized for two
	// cores; more would change what is measured.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	h, err := newHarness(workDirName, *outDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer h.cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-ctx.Done():
			select {
			case <-finished: // normal exit cancelled ctx, not a signal
				return
			default:
			}
			// A run stuck in a long engine call must not outlive the signal
			// with children and data dirs behind it.
			h.cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()

	env := collectEnv(workDirName)
	if env.DataDirFS == "tmpfs" {
		h.logf("WARNING: %s is on tmpfs, where fsync is a no-op: wal.* and the journal's share of job latency are meaningless", workDirName)
	}

	if *workload != "" {
		res, err := h.runWorkload(ctx, runConfig{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *traced != 0, Sizes: defaultSizes(),
		})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printRun(stdout, res)
		line, err := json.Marshal(resultLine(res))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return exitCode(res)
	}

	rep, err := h.runAll(ctx, env, *seed, *seconds, *repeat, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	path := filepath.Join(*outDir, "report.json")
	if err := writeJSONFile(path, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s\n", path)
	return exitCode(rep.Runs...)
}

// resultLine is the object a single-workload run prints last: exactly these
// four keys.
func resultLine(res *runResult) any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
}

// exitCode is non-zero as soon as one run failed a check or an operation.
func exitCode(results ...*runResult) int {
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// report is what the all-workloads mode writes and compare reads.
type report struct {
	Env     envInfo      `json:"env"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// runAll runs every workload repeat times untraced (seeds seed, seed+1, ...)
// and once traced at the first seed, handing the traced run its untraced
// twin so digests and counts are compared across the two.
func (h *harness) runAll(ctx context.Context, env envInfo, seed uint64, seconds float64, repeat int, stdout io.Writer) (*report, error) {
	rep := &report{Env: env, Seed: seed, Seconds: seconds}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s data-dir-fs=%s seed=%d seconds=%g\n",
		env.NumCPU, env.GOMAXPROCS, env.CPUModel, env.GoVersion, env.Commit, env.DataDirFS, seed, seconds)
	for _, name := range workloadNames {
		var first *runResult
		for i := 0; i < repeat; i++ {
			res, err := h.runWorkload(ctx, runConfig{Workload: name, Seed: seed + uint64(i), Seconds: seconds, Sizes: defaultSizes()})
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = res
			}
			rep.Runs = append(rep.Runs, res)
			printRun(stdout, res)
		}
		res, err := h.runWorkload(ctx, runConfig{Workload: name, Seed: seed, Seconds: seconds, Traced: true, Sizes: defaultSizes(), Reference: first})
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, res)
		printRun(stdout, res)
	}
	return rep, nil
}

// printRun lists every metric of a run by name with its unit, then the
// timings with their sample counts and the checks.
func printRun(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.1fs wall) correct=%v attempted=%d failed=%d\n",
		res.Workload, mode, res.Seed, res.WallSeconds, res.Correct, res.Attempted, res.Failed)
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range sortedKeys(res.Timings) {
		t := res.Timings[n]
		tail := fmt.Sprintf("max %.4g", t.Tail)
		if t.TailPercentile > 0 {
			tail = fmt.Sprintf("p%g %.4g", t.TailPercentile, t.Tail)
		}
		fmt.Fprintf(w, "  timing %-31s median %.4g, %s (n=%d)\n", n, t.Median, tail, t.N)
	}
	for _, l := range sortedKeys(res.LayerSelfSeconds) {
		fmt.Fprintf(w, "  self time %-28s %.4g s\n", l, res.LayerSelfSeconds[l])
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-40s %s\n", verdict, c.Name, c.Info)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
