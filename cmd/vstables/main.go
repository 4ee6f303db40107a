// Command vstables regenerates the result tables of the paper (Tables 6-9)
// through the modeled full-scale workload, printing measured times,
// speed-ups and the paper-reported speed-ups for comparison.
//
// Usage:
//
//	vstables               # all four tables at paper scale
//	vstables -table 8      # one table
//	vstables -scale 0.25   # reduced workload
//	vstables -config       # print the configuration tables 4 and 5
//	vstables -check        # exit non-zero if a qualitative shape check fails
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/metascreen/metascreen/internal/report"
	"github.com/metascreen/metascreen/internal/tables"
)

func main() {
	table := flag.Int("table", 0, "paper table number (6-9); 0 runs all")
	scale := flag.Float64("scale", 1, "workload scale in (0, 1]; 1 is paper scale")
	seed := flag.Uint64("seed", 2016, "random seed")
	noise := flag.Float64("noise", 0, "warm-up measurement noise amplitude (e.g. 0.05)")
	config := flag.Bool("config", false, "print the paper's configuration tables 4 and 5 and exit")
	check := flag.Bool("check", false, "run the qualitative shape checks and report pass/fail")
	energy := flag.Bool("energy", false, "also print the modeled energy comparison per table")
	format := flag.String("format", "text", "output format: text, csv or json")
	deadline := flag.Float64("deadline", 0, "run the deadline-quality experiment with this simulated budget in seconds")
	flag.Parse()

	if *deadline > 0 {
		for _, m := range []tables.Machine{tables.Jupiter(), tables.Hertz()} {
			rep, err := tables.RunDeadline(m, "2BSM", *deadline,
				tables.Config{Scale: *scale, Seed: *seed, NoiseAmp: *noise})
			if err != nil {
				fatal(err)
			}
			if err := rep.Write(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		return
	}

	if *config {
		if err := tables.WriteConfig(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	var exps []tables.Experiment
	if *table == 0 {
		exps = tables.Experiments()
	} else {
		exp, err := tables.ExperimentByNumber(*table)
		if err != nil {
			fatal(err)
		}
		exps = []tables.Experiment{exp}
	}

	// One replay for every table: tables on the same dataset share each
	// metaheuristic's search.
	tabs, err := tables.RunTables(exps, tables.Config{Scale: *scale, Seed: *seed, NoiseAmp: *noise})
	if err != nil {
		fatal(err)
	}
	allPass := true
	for _, tab := range tabs {
		if err := report.WriteTable(os.Stdout, tab, report.Format(*format)); err != nil {
			fatal(err)
		}
		if *energy && report.Format(*format) == report.FormatText {
			if err := tab.WriteEnergy(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *check {
			rep := tables.CheckShape(tab)
			for _, c := range rep.Checks {
				status := "PASS"
				if !c.Pass {
					status = "FAIL"
					allPass = false
				}
				fmt.Printf("  [%s] %-28s %s\n", status, c.Name, c.Info)
			}
		}
		fmt.Println()
	}
	if *check && !allPass {
		fmt.Fprintln(os.Stderr, "vstables: shape checks failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vstables:", err)
	os.Exit(1)
}
