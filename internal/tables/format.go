package tables

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/metascreen/metascreen/internal/metaheuristic"
)

// Write renders the table in the paper's column layout, appending the two
// speed-up columns, and — when the paper reported this table — a
// paper-vs-measured comparison of the speed-ups.
func (t *Table) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d: %s on %s (simulated seconds)\n", t.Number, t.Dataset, t.Machine.Name)
	fmt.Fprintf(&b, "  Node: %d CPU cores @ %.0f MHz, GPUs: %s\n",
		t.Machine.CPUCores, t.Machine.CPUClockMHz, gpuSummary(t.Machine))

	hasHomogSys := len(t.Machine.HomogeneousSubset) > 0
	header := fmt.Sprintf("  %-4s %12s", "MH", "OpenMP")
	if hasHomogSys {
		header += fmt.Sprintf(" %12s", "HomogSys")
	}
	header += fmt.Sprintf(" %14s %14s %10s %10s", "HetSys/Homog", "HetSys/Heter", "SU het", "SU OpenMP")
	fmt.Fprintln(&b, header)

	for _, r := range t.Rows {
		line := fmt.Sprintf("  %-4s %12.2f", r.Metaheuristic, r.OpenMP)
		if hasHomogSys {
			line += fmt.Sprintf(" %12.2f", r.HomogeneousSystem)
		}
		line += fmt.Sprintf(" %14.2f %14.2f %10.2f %10.2f",
			r.HetHomogComputation, r.HetHetComputation,
			r.SpeedupHetVsHomog(), r.SpeedupOpenMPVsHet())
		fmt.Fprintln(&b, line)
	}

	if paper := PaperResults(t.Number); paper != nil {
		fmt.Fprintf(&b, "  paper-reported speed-ups for comparison:\n")
		for _, r := range t.Rows {
			p, ok := paper[r.Metaheuristic]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-4s SU het: paper %.2f / measured %.2f    SU OpenMP: paper %.2f / measured %.2f\n",
				r.Metaheuristic,
				p.SpeedupHetVsHomog(), r.SpeedupHetVsHomog(),
				p.SpeedupOpenMPVsHet(), r.SpeedupOpenMPVsHet())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func gpuSummary(m Machine) string {
	counts := map[string]int{}
	var order []string
	for _, g := range m.GPUs {
		if counts[g.Name] == 0 {
			order = append(order, g.Name)
		}
		counts[g.Name]++
	}
	parts := make([]string, 0, len(order))
	for _, name := range order {
		parts = append(parts, fmt.Sprintf("%dx %s", counts[name], name))
	}
	return strings.Join(parts, " + ")
}

// WriteEnergy renders the table's energy comparison: modeled joules for
// the OpenMP baseline and the heterogeneous computation, and the
// energy-saving factor of moving to GPUs (the paper's "waste energy"
// concern, quantified per metaheuristic).
func (t *Table) WriteEnergy(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Energy, Table %d workload: %s on %s (modeled joules)\n",
		t.Number, t.Dataset, t.Machine.Name)
	fmt.Fprintf(&b, "  %-4s %14s %14s %10s\n", "MH", "OpenMP (J)", "HetSys (J)", "ratio")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-4s %14.0f %14.0f %9.1fx\n",
			r.Metaheuristic, r.EnergyOpenMP, r.EnergyHetHet, r.EnergyRatio())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteConfig renders the paper's configuration tables 4 (metaheuristic
// parameters) and 5 (dataset sizes) as text.
func WriteConfig(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 4: algorithm parameters for the four metaheuristics")
	fmt.Fprintln(&b, "  MH   initial population   % selected   % improved")
	fmt.Fprintln(&b, "  M1   64*spots             100%         0%")
	fmt.Fprintln(&b, "  M2   64*spots             100%         100%")
	fmt.Fprintln(&b, "  M3   64*spots             100%         20%")
	fmt.Fprintln(&b, "  M4   1024*spots           (n/a)        100%")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "Table 5: number of atoms of the benchmark compounds")
	fmt.Fprintln(&b, "  2BSM receptor  3264")
	fmt.Fprintln(&b, "  2BSM ligand      45")
	fmt.Fprintln(&b, "  2BXG receptor  8609")
	fmt.Fprintln(&b, "  2BXG ligand      32")
	_, err := io.WriteString(w, b.String())
	return err
}

// complete reports whether every time the row has on machine m is finite
// and positive.
func (r Row) complete(m Machine) bool {
	times := []float64{r.OpenMP, r.HetHomogComputation, r.HetHetComputation}
	if len(m.HomogeneousSubset) > 0 {
		times = append(times, r.HomogeneousSystem)
	}
	for _, v := range times {
		if !(v > 0) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ShapeReport summarizes whether a regenerated table preserves the paper's
// qualitative findings; each check is a named pass/fail.
type ShapeReport struct {
	Checks []ShapeCheck
}

// ShapeCheck is one qualitative assertion about a table.
type ShapeCheck struct {
	Name string
	Pass bool
	Info string
}

// Pass reports whether every check passed.
func (r ShapeReport) Pass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// CheckShape verifies the paper's qualitative findings on a regenerated
// table:
//
//   - multi-GPU beats the multicore baseline by a large factor for every
//     metaheuristic;
//   - the heterogeneous computation never loses to the homogeneous one;
//   - on mixed-architecture nodes (Hertz) the heterogeneous gain is
//     substantial (>= 1.2x); on near-uniform nodes (Jupiter) it is small
//     (< 1.2x);
//   - M4 is the most expensive metaheuristic and M3 the cheapest.
//
// A metaheuristic whose row is missing, or holds a non-finite or
// non-positive time, enters every check as NaN and fails them, and
// gpu-dominates names it.
func CheckShape(t *Table) ShapeReport {
	var rep ShapeReport
	add := func(name string, pass bool, format string, args ...any) {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Name: name, Pass: pass, Info: fmt.Sprintf(format, args...),
		})
	}
	byName := map[string]Row{}
	for _, r := range t.Rows {
		byName[r.Metaheuristic] = r
	}
	var bad []string
	minOpenMPSpeedup := math.Inf(1)
	minGain, maxGain := math.Inf(1), math.Inf(-1)
	for _, mh := range metaheuristic.PaperNames() {
		r, ok := byName[mh]
		if !ok || !r.complete(t.Machine) {
			bad = append(bad, mh)
			nan := math.NaN()
			r = Row{Metaheuristic: mh, OpenMP: nan, HomogeneousSystem: nan, HetHomogComputation: nan, HetHetComputation: nan}
			byName[mh] = r
		}
		// A NaN sticks: no comparison with it is true.
		if s := r.SpeedupOpenMPVsHet(); s < minOpenMPSpeedup || math.IsNaN(s) {
			minOpenMPSpeedup = s
		}
		g := r.SpeedupHetVsHomog()
		if g < minGain || math.IsNaN(g) {
			minGain = g
		}
		if g > maxGain || math.IsNaN(g) {
			maxGain = g
		}
	}
	badInfo := ""
	if len(bad) > 0 {
		badInfo = fmt.Sprintf("; rows missing or with a non-finite or non-positive time: %s", strings.Join(bad, ", "))
	}
	add("gpu-dominates", minOpenMPSpeedup >= 10,
		"min OpenMP/het speed-up %.1f (want >= 10)%s", minOpenMPSpeedup, badInfo)
	add("het-never-loses", minGain >= 0.99,
		"min heterogeneous gain %.3f (want >= 0.99)", minGain)
	mixedArch := t.Machine.Name == "Hertz"
	if mixedArch {
		add("mixed-arch-gain", minGain >= 1.2,
			"min gain %.2f on mixed architectures (want >= 1.2)", minGain)
	} else {
		add("uniform-arch-gain-small", maxGain < 1.2,
			"max gain %.2f on near-uniform architectures (want < 1.2)", maxGain)
	}
	m1, m2, m3, m4 := byName["M1"], byName["M2"], byName["M3"], byName["M4"]
	add("m4-most-expensive",
		m4.OpenMP > m1.OpenMP && m4.OpenMP > m2.OpenMP && m4.OpenMP > m3.OpenMP,
		"OpenMP times M1=%.1f M2=%.1f M3=%.1f M4=%.1f", m1.OpenMP, m2.OpenMP, m3.OpenMP, m4.OpenMP)
	add("m3-cheapest",
		m3.OpenMP < m1.OpenMP && m3.OpenMP < m2.OpenMP && m3.OpenMP < m4.OpenMP,
		"M3 cheapest: %.1f", m3.OpenMP)
	return rep
}
