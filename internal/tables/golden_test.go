package tables

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateTables = flag.Bool("update", false, "rewrite testdata/tables.golden from this build")

// goldenBudget binds mid-run at scale 0.1 on both machines: every
// metaheuristic completes some generations, and none completes all.
const goldenBudget = 0.02

// TestTablesGolden pins every cell of Tables 6–9 (times and both
// energies) at scale 0.1 and seeds 2016 and 7, plus the deadline
// experiment on Jupiter and Hertz under a budget that binds mid-run
// (generations and best scores), as hex float64 bits. Tables 6 and 8 also
// run with 5 % warm-up noise, so the noise draws are pinned too. Any
// change to the search, the cost model or the order of the simulator's
// calls shows here. Regenerate with -update only when such a change is
// intended.
func TestTablesGolden(t *testing.T) {
	var b strings.Builder
	line := func(prefix string, v any) {
		rv := reflect.ValueOf(v)
		b.WriteString(prefix)
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			fmt.Fprintf(&b, " %s=", rv.Type().Field(i).Name)
			switch f.Kind() {
			case reflect.Float64:
				fmt.Fprintf(&b, "%016x", math.Float64bits(f.Float()))
			default:
				fmt.Fprint(&b, f.Interface())
			}
		}
		b.WriteByte('\n')
	}
	for _, seed := range []uint64{2016, 7} {
		cfg := Config{Scale: 0.1, Seed: seed}
		for _, exp := range Experiments() {
			tab, err := Run(exp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tab.Rows {
				line(fmt.Sprintf("seed %d table %d", seed, exp.Number), r)
			}
		}
		for _, m := range []Machine{Jupiter(), Hertz()} {
			rep, err := RunDeadline(m, "2BSM", goldenBudget, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Rows {
				line(fmt.Sprintf("seed %d deadline %s", seed, m.Name), r)
			}
		}
	}
	for _, n := range []int{6, 8} {
		exp, err := ExperimentByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := Run(exp, Config{Scale: 0.1, Seed: 7, NoiseAmp: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.Rows {
			line(fmt.Sprintf("seed 7 noise 0.05 table %d", n), r)
		}
	}

	path := filepath.Join("testdata", "tables.golden")
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("tables.golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, tables.golden has %d", len(gl), len(wl))
	}
}
