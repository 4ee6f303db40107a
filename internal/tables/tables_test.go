package tables

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/metaheuristic"
)

func TestMachinesMatchPaper(t *testing.T) {
	j := Jupiter()
	if j.CPUCores != 12 || j.CPUClockMHz != 2000 {
		t.Errorf("Jupiter CPU = %d @ %v", j.CPUCores, j.CPUClockMHz)
	}
	if len(j.GPUs) != 6 {
		t.Errorf("Jupiter has %d GPUs, want 6", len(j.GPUs))
	}
	if len(j.HomogeneousGPUs()) != 4 {
		t.Errorf("Jupiter homogeneous subset = %d, want 4", len(j.HomogeneousGPUs()))
	}
	h := Hertz()
	if h.CPUCores != 4 || h.CPUClockMHz != 3100 {
		t.Errorf("Hertz CPU = %d @ %v", h.CPUCores, h.CPUClockMHz)
	}
	if len(h.GPUs) != 2 || h.HomogeneousGPUs() != nil {
		t.Errorf("Hertz GPUs = %d (homog subset %v)", len(h.GPUs), h.HomogeneousGPUs())
	}
	if _, err := MachineByName("Jupiter"); err != nil {
		t.Error(err)
	}
	if _, err := MachineByName("Saturn"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestExperimentsCoverTables6To9(t *testing.T) {
	exps := Experiments()
	if len(exps) != 4 {
		t.Fatalf("%d experiments", len(exps))
	}
	want := map[int]string{6: "2BSM", 7: "2BXG", 8: "2BSM", 9: "2BXG"}
	for _, e := range exps {
		if want[e.Number] != e.Dataset {
			t.Errorf("table %d dataset = %s", e.Number, e.Dataset)
		}
	}
	if _, err := ExperimentByNumber(6); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByNumber(5); err == nil {
		t.Error("table 5 is not a result table")
	}
}

func TestPaperResultsComplete(t *testing.T) {
	for n := 6; n <= 9; n++ {
		rows := PaperResults(n)
		if len(rows) != 4 {
			t.Errorf("table %d: %d paper rows", n, len(rows))
		}
		for mh, r := range rows {
			if r.OpenMP <= 0 || r.HetHetComputation <= 0 {
				t.Errorf("table %d %s: bad paper numbers %+v", n, mh, r)
			}
			if r.SpeedupHetVsHomog() < 1 {
				t.Errorf("table %d %s: paper het speed-up %v < 1", n, mh, r.SpeedupHetVsHomog())
			}
		}
	}
	if PaperResults(5) != nil {
		t.Error("table 5 should have no results")
	}
}

// runTable8Small regenerates table 8 at reduced scale (fast) for the shape
// tests.
func runTable8Small(t *testing.T) *Table {
	t.Helper()
	exp, err := ExperimentByNumber(8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(exp, Config{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunTableShapeHertz(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale table run (the paper's shape only holds at paper-scale batches)")
	}
	exp, err := ExperimentByNumber(8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(exp, Config{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	rep := CheckShape(tab)
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("shape check %s failed: %s", c.Name, c.Info)
		}
	}
	// Hertz has no homogeneous-system column.
	for _, r := range tab.Rows {
		if !math.IsNaN(r.HomogeneousSystem) {
			t.Errorf("%s: unexpected homogeneous-system value %v", r.Metaheuristic, r.HomogeneousSystem)
		}
	}
}

func TestRunTableShapeJupiter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale table run (the paper's shape only holds at paper-scale batches)")
	}
	exp, err := ExperimentByNumber(6)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(exp, Config{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckShape(tab)
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("shape check %s failed: %s", c.Name, c.Info)
		}
	}
	// Jupiter's homogeneous system (4 GPUs) must be slower than the
	// 6-GPU heterogeneous system.
	for _, r := range tab.Rows {
		if math.IsNaN(r.HomogeneousSystem) {
			t.Fatalf("%s: missing homogeneous-system column", r.Metaheuristic)
		}
		if r.HomogeneousSystem <= r.HetHomogComputation {
			t.Errorf("%s: 4 GPUs (%v) not slower than 6 GPUs (%v)",
				r.Metaheuristic, r.HomogeneousSystem, r.HetHomogComputation)
		}
	}
}

func TestRunTableShape2BXG(t *testing.T) {
	// Tables 7 and 9 (the larger 2BXG dataset) at full scale: all shape
	// checks hold, and the speed-up exceeds the 2BSM tables' (the paper:
	// "the speed-up increases with the problem size").
	if testing.Short() {
		t.Skip("full-scale table runs")
	}
	minSpeedup := func(tab *Table) float64 {
		min := math.Inf(1)
		for _, r := range tab.Rows {
			if s := r.SpeedupOpenMPVsHet(); s < min {
				min = s
			}
		}
		return min
	}
	for _, pair := range []struct{ small, large int }{{8, 9}, {6, 7}} {
		expS, err := ExperimentByNumber(pair.small)
		if err != nil {
			t.Fatal(err)
		}
		tabS, err := Run(expS, Config{Scale: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		expL, err := ExperimentByNumber(pair.large)
		if err != nil {
			t.Fatal(err)
		}
		tabL, err := Run(expL, Config{Scale: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep := CheckShape(tabL)
		for _, c := range rep.Checks {
			if !c.Pass {
				t.Errorf("table %d shape check %s failed: %s", pair.large, c.Name, c.Info)
			}
		}
		if minSpeedup(tabL) <= minSpeedup(tabS)*0.95 {
			t.Errorf("tables %d vs %d: speed-up did not grow with problem size (%v vs %v)",
				pair.large, pair.small, minSpeedup(tabL), minSpeedup(tabS))
		}
	}
}

func TestRunTableStructureSmallScale(t *testing.T) {
	// Structural checks at reduced scale: rows, columns, positivity. The
	// quantitative shape is asserted at full scale above.
	tab := runTable8Small(t)
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.OpenMP <= 0 || r.HetHomogComputation <= 0 || r.HetHetComputation <= 0 {
			t.Errorf("%s: non-positive times %+v", r.Metaheuristic, r)
		}
		if r.SpeedupOpenMPVsHet() < 10 {
			t.Errorf("%s: GPU speed-up %v implausibly low", r.Metaheuristic, r.SpeedupOpenMPVsHet())
		}
	}
}

func TestRunTableDeterministic(t *testing.T) {
	a := runTable8Small(t)
	b := runTable8Small(t)
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Metaheuristic != rb.Metaheuristic ||
			!eq(ra.OpenMP, rb.OpenMP) ||
			!eq(ra.HomogeneousSystem, rb.HomogeneousSystem) ||
			!eq(ra.HetHomogComputation, rb.HetHomogComputation) ||
			!eq(ra.HetHetComputation, rb.HetHetComputation) {
			t.Errorf("row %d differs between identical runs:\n%+v\n%+v", i, ra, rb)
		}
	}
}

func TestTableWrite(t *testing.T) {
	tab := runTable8Small(t)
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 8", "Hertz", "M1", "M4", "SU het", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteConfig(t *testing.T) {
	var sb strings.Builder
	if err := WriteConfig(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 4", "Table 5", "1024*spots", "8609"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("config output missing %q", want)
		}
	}
}

func TestRunDeadlineHertz(t *testing.T) {
	rep, err := RunDeadline(Hertz(), "2BSM", 0.4, Config{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 { // M1-M3; M4 is a single step
		t.Fatalf("%d rows", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.GenHomog <= 0 || row.GenHeter <= 0 {
			t.Errorf("%s: no generations completed: %+v", row.Metaheuristic, row)
		}
		// On the mixed-architecture node the balanced split must complete
		// at least as many generations within the deadline.
		if row.GenHeter < row.GenHomog {
			t.Errorf("%s: heterogeneous completed %d generations, homogeneous %d",
				row.Metaheuristic, row.GenHeter, row.GenHomog)
		}
	}
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Deadline experiment") {
		t.Error("report missing header")
	}
}

func TestRunDeadlineRejectsBadBudget(t *testing.T) {
	if _, err := RunDeadline(Hertz(), "2BSM", 0, Config{Scale: 0.2}); err != nil {
		// expected
	} else {
		t.Error("zero budget accepted")
	}
	if _, err := RunDeadline(Hertz(), "1ABC", 1, Config{Scale: 0.2}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunRowExported(t *testing.T) {
	exp, err := ExperimentByNumber(8)
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunRow(exp, "M3", Config{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row.Metaheuristic != "M3" || row.OpenMP <= 0 {
		t.Errorf("row = %+v", row)
	}
	if row.EnergyOpenMP <= 0 || row.EnergyHetHet <= 0 {
		t.Errorf("energies missing: %+v", row)
	}
	if row.EnergyRatio() <= 1 {
		t.Errorf("CPU should burn more energy: ratio %v", row.EnergyRatio())
	}
	if _, err := RunRow(exp, "M9", Config{Scale: 0.1}); err == nil {
		t.Error("unknown metaheuristic accepted")
	}
}

func TestWriteEnergy(t *testing.T) {
	tab := runTable8Small(t)
	var sb strings.Builder
	if err := tab.WriteEnergy(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Energy", "OpenMP (J)", "ratio", "M4"} {
		if !strings.Contains(out, want) {
			t.Errorf("energy output missing %q", want)
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	exp := Experiment{Number: 6, Machine: Jupiter(), Dataset: "NOPE"}
	if _, err := Run(exp, Config{Scale: 0.1}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := RunRow(exp, "M1", Config{Scale: 0.1}); err == nil {
		t.Error("RunRow accepted unknown dataset")
	}
}

func TestShapeReportPass(t *testing.T) {
	good := ShapeReport{Checks: []ShapeCheck{{Pass: true}, {Pass: true}}}
	if !good.Pass() {
		t.Error("all-pass report fails")
	}
	bad := ShapeReport{Checks: []ShapeCheck{{Pass: true}, {Pass: false}}}
	if bad.Pass() {
		t.Error("failing report passes")
	}
}

// sameBits fails t unless a and b agree in every field, floats to the bit
// (so NaN columns must match too).
func sameBits(t *testing.T, what string, a, b any) {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		same := fa.Interface() == fb.Interface()
		if fa.Kind() == reflect.Float64 {
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		}
		if !same {
			t.Errorf("%s: %s differs: %v vs %v", what, va.Type().Field(i).Name, fa.Interface(), fb.Interface())
		}
	}
}

func TestPoolEqualsSerial(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 5}
	for _, n := range []int{6, 8} {
		exp, err := ExperimentByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := runTable(exp, metaheuristic.PaperNames(), cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := runTable(exp, metaheuristic.PaperNames(), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Rows) != 4 || len(pooled.Rows) != 4 {
			t.Fatalf("table %d: %d and %d rows", n, len(serial.Rows), len(pooled.Rows))
		}
		for i := range serial.Rows {
			sameBits(t, fmt.Sprintf("table %d row %d", n, i), serial.Rows[i], pooled.Rows[i])
		}
		row, err := RunRow(exp, "M2", cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("table %d RunRow M2", n), serial.Rows[1], row)
	}
	for _, m := range []Machine{Jupiter(), Hertz()} {
		serial, err := runDeadline(m, "2BSM", 0.02, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := runDeadline(m, "2BSM", 0.02, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Rows) != 3 || len(pooled.Rows) != 3 {
			t.Fatalf("%s: %d and %d deadline rows", m.Name, len(serial.Rows), len(pooled.Rows))
		}
		for i := range serial.Rows {
			sameBits(t, fmt.Sprintf("%s deadline row %d", m.Name, i), serial.Rows[i], pooled.Rows[i])
		}
	}
}

// TestRunTablesEqualsRun: one replay of all four tables, which searches
// each (dataset, metaheuristic) once, equals one Run per table bit for bit.
func TestRunTablesEqualsRun(t *testing.T) {
	for _, seed := range []uint64{2016, 7} {
		cfg := Config{Scale: 0.1, Seed: seed}
		tabs, err := RunTables(Experiments(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tabs) != len(Experiments()) {
			t.Fatalf("seed %d: %d tables", seed, len(tabs))
		}
		for i, exp := range Experiments() {
			want, err := Run(exp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := tabs[i]
			if got.Number != want.Number || got.Dataset != want.Dataset || got.Machine.Name != want.Machine.Name || len(got.Rows) != len(want.Rows) {
				t.Fatalf("seed %d: table %d on %s/%s with %d rows, want table %d on %s/%s with %d rows", seed,
					got.Number, got.Machine.Name, got.Dataset, len(got.Rows), want.Number, want.Machine.Name, want.Dataset, len(want.Rows))
			}
			for r := range want.Rows {
				sameBits(t, fmt.Sprintf("seed %d table %d row %d", seed, exp.Number, r), got.Rows[r], want.Rows[r])
			}
		}
	}
}

func TestErrorsWrappedOnEveryEntryPoint(t *testing.T) {
	// NewPaper rejects the scale, so every docking fails; each entry point
	// reports its first docking in table order, wrapped the same way.
	bad := Config{Scale: 1.5}
	exp, err := ExperimentByNumber(8)
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error, prefix string) {
		t.Helper()
		if err == nil {
			t.Fatalf("scale 1.5 accepted (want %q...)", prefix)
		}
		if !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), "scale 1.5") {
			t.Errorf("error %q, want prefix %q and the cause", err, prefix)
		}
	}
	_, err = Run(exp, bad)
	check(err, "tables: table 8 M1: ")
	_, err = runTable(exp, metaheuristic.PaperNames(), bad, 4)
	check(err, "tables: table 8 M1: ")
	_, err = RunRow(exp, "M3", bad)
	check(err, "tables: table 8 M3: ")
	_, err = RunTables(Experiments(), bad)
	check(err, "tables: table 6 M1: ")
	_, err = RunDeadline(Hertz(), "2BSM", 0.4, bad)
	check(err, "tables: deadline Hertz 2BSM M1: ")
	_, err = RunRow(exp, "M9", Config{Scale: 0.1})
	if err == nil || !strings.HasPrefix(err.Error(), "tables: table 8 M9: ") {
		t.Errorf("unknown metaheuristic: %v", err)
	}
}

func TestDockAllFirstErrorNoStragglers(t *testing.T) {
	// Job 1 fails first while job 0 is still running; job 0 then fails
	// too. The lower index's error wins, no job starts after the first
	// failure, and dockAll waits for job 0 before it returns.
	var started, finished atomic.Int32
	oneFailed := make(chan struct{})
	err := dockAll(8, 2, func(i int) error {
		started.Add(1)
		defer finished.Add(1)
		switch i {
		case 0:
			<-oneFailed
			time.Sleep(20 * time.Millisecond)
			return errors.New("job 0")
		case 1:
			close(oneFailed)
			return errors.New("job 1")
		}
		return nil
	})
	if err == nil || err.Error() != "job 0" {
		t.Errorf("err = %v, want job 0's", err)
	}
	if s, f := started.Load(), finished.Load(); s != 2 || f != 2 {
		t.Errorf("started %d, finished %d at return; want 2 and 2", s, f)
	}
	if err := dockAll(0, 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty pool: %v", err)
	}
}

// paperTable is table n built from the paper's own numbers, which keep
// the shape.
func paperTable(t *testing.T, n int) *Table {
	t.Helper()
	exp, err := ExperimentByNumber(n)
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{Number: n, Machine: exp.Machine, Dataset: exp.Dataset}
	paper := PaperResults(n)
	for _, mh := range metaheuristic.PaperNames() {
		p := paper[mh]
		tab.Rows = append(tab.Rows, Row{Metaheuristic: mh, OpenMP: p.OpenMP, HomogeneousSystem: p.HomogeneousSystem,
			HetHomogComputation: p.HetHomogComputation, HetHetComputation: p.HetHetComputation})
	}
	return tab
}

func TestCheckShapeFailsIncompleteRow(t *testing.T) {
	for _, n := range []int{6, 8} {
		if rep := CheckShape(paperTable(t, n)); !rep.Pass() {
			t.Fatalf("table %d from the paper's numbers fails: %+v", n, rep.Checks)
		}
	}
	cases := []struct {
		name  string
		table int
		edit  func(tab *Table)
	}{
		// An unwritten result slot: every time of the M3 row is zero.
		{"zeroed M3", 8, func(tab *Table) { tab.Rows[2] = Row{Metaheuristic: "M3"} }},
		{"missing M3", 8, func(tab *Table) { tab.Rows = append(tab.Rows[:2], tab.Rows[3]) }},
		{"zero het/het", 8, func(tab *Table) { tab.Rows[0].HetHetComputation = 0 }},
		{"negative OpenMP", 8, func(tab *Table) { tab.Rows[1].OpenMP = -1 }},
		{"infinite het/homog", 6, func(tab *Table) { tab.Rows[3].HetHomogComputation = math.Inf(1) }},
		{"NaN homogeneous system", 6, func(tab *Table) { tab.Rows[0].HomogeneousSystem = math.NaN() }},
	}
	for _, c := range cases {
		tab := paperTable(t, c.table)
		c.edit(tab)
		rep := CheckShape(tab)
		if rep.Pass() {
			t.Errorf("%s: table %d passes every check", c.name, c.table)
			continue
		}
		first := rep.Checks[0]
		if first.Name != "gpu-dominates" || first.Pass || !strings.Contains(first.Info, "non-positive time") {
			t.Errorf("%s: first check %+v, want a failing gpu-dominates naming the row", c.name, first)
		}
	}
}
