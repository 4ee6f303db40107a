package tables

import (
	"fmt"
	"io"
	"strings"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/sched"
)

// Deadline experiment: the paper's abstract claims the cooperative
// scheduling "optimizes the quality of the solution and the overall
// performance" and that the strategy matters "where real-time constraints
// must be fulfilled". This experiment runs the same metaheuristic under
// the same simulated deadline on the homogeneous and heterogeneous splits
// and reports generations completed and solution quality.

// DeadlineRow is one metaheuristic's outcome under a deadline.
type DeadlineRow struct {
	Metaheuristic string
	// GenHomog and GenHeter are the generations completed by each split.
	GenHomog, GenHeter int
	// BestHomog and BestHeter are the best (surrogate) scores reached.
	BestHomog, BestHeter float64
}

// DeadlineReport is the whole experiment.
type DeadlineReport struct {
	Machine Machine
	Dataset string
	// BudgetSeconds is the simulated deadline.
	BudgetSeconds float64
	Rows          []DeadlineRow
}

// RunDeadline executes the deadline experiment on a machine and dataset.
// The budget should be a fraction of the full run time so the deadline
// binds; scale shrinks the workload as in Run.
func RunDeadline(m Machine, dataset string, budget float64, cfg Config) (*DeadlineReport, error) {
	return runDeadline(m, dataset, budget, cfg, 0)
}

// runDeadline replays the experiment on the same pool as runTable: one
// job per metaheuristic, its search replayed under the budget on each
// split.
func runDeadline(m Machine, dataset string, budget float64, cfg Config, workers int) (*DeadlineReport, error) {
	cfg = cfg.withDefaults()
	if budget <= 0 {
		return nil, fmt.Errorf("tables: deadline budget %g", budget)
	}
	problem, err := newProblem(dataset)
	if err != nil {
		return nil, err
	}
	rep := &DeadlineReport{Machine: m, Dataset: dataset, BudgetSeconds: budget}
	for _, mh := range metaheuristic.PaperNames() {
		// M4 is a single step; deadlines act between generations and
		// cannot split it.
		if mh != "M4" {
			rep.Rows = append(rep.Rows, DeadlineRow{Metaheuristic: mh})
		}
	}
	label := fmt.Sprintf("deadline %s %s", m.Name, dataset)
	jobs := make([]job, len(rep.Rows))
	for i := range rep.Rows {
		row := &rep.Rows[i]
		jobs[i] = job{label: label, mh: row.Metaheuristic, p: problem, timelines: []timeline{
			{m, setup{allGPUs, sched.Homogeneous}, func(res *core.Result) {
				row.GenHomog, row.BestHomog = res.Generations, res.Best.Score
			}},
			{m, setup{allGPUs, sched.Heterogeneous}, func(res *core.Result) {
				row.GenHeter, row.BestHeter = res.Generations, res.Best.Score
			}},
		}}
	}
	if err := replay(cfg, budget, jobs, workers); err != nil {
		return nil, err
	}
	return rep, nil
}

// Write renders the report.
func (r *DeadlineReport) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Deadline experiment: %s on %s, budget %.3f simulated seconds\n",
		r.Dataset, r.Machine.Name, r.BudgetSeconds)
	fmt.Fprintf(&b, "  %-4s %16s %16s %14s %14s\n",
		"MH", "gens (homog)", "gens (heter)", "best (homog)", "best (heter)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-4s %16d %16d %14.3f %14.3f\n",
			row.Metaheuristic, row.GenHomog, row.GenHeter, row.BestHomog, row.BestHeter)
	}
	fmt.Fprintln(&b, "  (same deadline. On mixed-architecture nodes the heterogeneous split")
	fmt.Fprintln(&b, "   completes more generations and equal-or-better solutions — the")
	fmt.Fprintln(&b, "   paper's real-time claim. On near-uniform nodes its warm-up cost may")
	fmt.Fprintln(&b, "   not be repaid within a short deadline.)")
	_, err := io.WriteString(w, b.String())
	return err
}
