package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is BENCHMARK.json, the contract the bounds are read from.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain implements `benchmark compare a.json b.json`: report b (the
// change) is judged against report a (the parent), one row per workload and
// end-to-end metric. It exits non-zero when a median got worse by more than
// the metric's bound, when a value that must repeat exactly did not, or
// when a run of b was incorrect.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <parent-report.json> <change-report.json>")
		return 2
	}
	var a, b report
	var bf benchmarkFile
	for i, v := range []any{&a, &b, &bf} {
		if err := readJSONFile(append(args, "BENCHMARK.json")[i], v); err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 2
		}
	}
	return compareReports(&a, &b, bf.EndToEnd, stdout)
}

// verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// judge compares the change's values with the parent's for one metric.
// worse is the change's median relative to the parent's, positive when it
// got worse. A spread (quartile distance over median) wider than the bound
// on either side makes the row unresolved, unless every run of the change
// beats every run of the parent.
func judge(def metricDef, parent, change []float64) (verdict string, worse, spread float64) {
	pm, cm := median(parent), median(change)
	if pm != 0 {
		worse = (cm - pm) / pm
	}
	if def.Better == "higher" {
		worse = -worse
	}
	spread = max(quartileSpread(parent), quartileSpread(change))
	ps, cs := sortedCopy(parent), sortedCopy(change)
	allBetter := cs[len(cs)-1] < ps[0]
	if def.Better == "higher" {
		allBetter = cs[0] > ps[len(ps)-1]
	}
	switch {
	case spread > def.Bound && allBetter:
		return verdictBetter, worse, spread
	case spread > def.Bound:
		return verdictUnresolved, worse, spread
	case worse > def.Bound:
		return verdictRegression, worse, spread
	case worse < -def.Bound:
		return verdictBetter, worse, spread
	}
	return verdictOK, worse, spread
}

// untracedValues collects a metric's values over a workload's untraced runs.
func untracedValues(rep *report, workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func compareReports(a, b *report, defs []metricDef, w io.Writer) int {
	code := 0
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ (%+v vs %+v); timings are comparable only within one environment\n", a.Env, b.Env)
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, def := range defs {
			pv, cv := untracedValues(a, wl, def.Name), untracedValues(b, wl, def.Name)
			if len(pv) == 0 && len(cv) == 0 {
				continue // neither report ran this workload
			}
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "%-16s %-20s missing from one report\n", wl, def.Name)
				code = 1
				continue
			}
			verdict, worse, spread := judge(def, pv, cv)
			if verdict == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				wl, def.Name, median(pv), median(cv), worse*100, spread*100, def.Bound*100, verdict)
		}
	}

	// Values that must repeat exactly, between runs of equal workload, seed,
	// mode and length.
	for _, rb := range b.Runs {
		if !rb.Correct {
			fmt.Fprintf(w, "%s (seed %d, traced %v): run of the change is not correct\n", rb.Workload, rb.Seed, rb.Traced)
			code = 1
		}
		i := slices.IndexFunc(a.Runs, func(ra *runResult) bool {
			return ra.Workload == rb.Workload && ra.Seed == rb.Seed && ra.Traced == rb.Traced
		})
		if i < 0 {
			continue
		}
		for k, want := range a.Runs[i].Exact {
			if got, ok := rb.Exact[k]; ok && got != want {
				fmt.Fprintf(w, "%s (seed %d): exact value %s changed: %s -> %s\n", rb.Workload, rb.Seed, k, want, got)
				code = 1
			}
		}
	}
	return code
}
