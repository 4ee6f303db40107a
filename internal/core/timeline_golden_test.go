package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// TestPoolTimelineGolden pins the device timeline of a traced, faulted
// pool run byte for byte: M1 under the heterogeneous split on Hertz
// (K40c + GTX580), the GTX580 lost mid-run and the K40c failing
// transiently. The golden holds the Gantt chart, the utilization of each
// device and the Chrome export, so a change to how the pool records its
// operations, or to how the recorder renders them, shows up here.
// Regenerate with -update only when a timeline change is intended.
func TestPoolTimelineGolden(t *testing.T) {
	rec := molecule.SyntheticProtein("rec", 1200, 31)
	lig := molecule.SyntheticLigand("lig", 12, 32)
	p, err := NewProblem(rec, lig, surface.Options{MaxSpots: 12}, forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := metaheuristic.NewPaper("M1", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	specs := []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580}
	plans, err := cudasim.ParseFaultPlans("dev1:fail@0.0005,dev0:transient@0.05", len(specs), 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Recorder{}
	pb, err := NewPoolBackend(p, PoolConfig{
		Specs: specs, Mode: sched.Heterogeneous, Seed: 7, Workers: 2,
		Trace: tr, Faults: plans,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(trace.NewContext(context.Background(), tr), p, alg, pb, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr.WriteGantt(os.Stdout, 100)
	if res.DeviceFaults == 0 || res.Resplits == 0 || res.SchedRetries == 0 {
		t.Fatalf("fault plan did not fire (faults %d, re-splits %d, retries %d); the golden is vacuous",
			res.DeviceFaults, res.Resplits, res.SchedRetries)
	}

	var b strings.Builder
	if err := tr.WriteGantt(&b, 100); err != nil {
		t.Fatal(err)
	}
	for i, u := range tr.Utilization() {
		fmt.Fprintf(&b, "device %d utilization %v\n", i, u)
	}
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "timeline.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("timeline drifted from %s at line %d: got %q, want %q", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("timeline drifted from %s: %d lines, want %d", golden, len(g), len(w))
	}
}
