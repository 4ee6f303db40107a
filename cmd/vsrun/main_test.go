package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags("M3", 0, 5, 0.05, 0); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags("M3", 16, 0, 1, 0.5); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	for _, mh := range []string{"M1", "M2", "M4"} {
		if err := checkFlags(mh, 0, 5, 0.05, 0); err != nil {
			t.Errorf("-mh %s rejected: %v", mh, err)
		}
	}
	for name, err := range map[string]error{
		"mh sa":         checkFlags("sa", 0, 5, 0.05, 0),
		"mh m3":         checkFlags("m3", 0, 5, 0.05, 0),
		"mh empty":      checkFlags("", 0, 5, 0.05, 0),
		"mh-scale 2":    checkFlags("M3", 0, 5, 2, 0),
		"spots -3":      checkFlags("M3", -3, 5, 0.05, 0),
		"top -1":        checkFlags("M3", 0, -1, 0.05, 0),
		"mh-scale 0":    checkFlags("M3", 0, 5, 0, 0),
		"mh-scale NaN":  checkFlags("M3", 0, 5, math.NaN(), 0),
		"mh-scale +Inf": checkFlags("M3", 0, 5, math.Inf(1), 0),
		"budget -1":     checkFlags("M3", 0, 5, 0.05, -1),
		"budget NaN":    checkFlags("M3", 0, 5, 0.05, math.NaN()),
		"budget +Inf":   checkFlags("M3", 0, 5, 0.05, math.Inf(1)),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestTimelineLabelsDevices: a dynamic run on Hertz at this scale docks on
// the GTX580 alone, so the timeline's only row is dev1 — and the
// utilization line under it must name device 1, not its row position.
func TestTimelineLabelsDevices(t *testing.T) {
	rec, lig, err := loadMolecules("2BSM", "", "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(rec, lig, surface.Options{}, forcefield.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := metaheuristic.NewPaper("M1", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	recorder := &trace.Recorder{}
	backend, err := pickBackend(p, "pool", "Hertz", "dynamic", 42, "", recorder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunCtx(trace.NewContext(context.Background(), recorder), p, alg, backend, 42); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeTimeline(&b, recorder); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "\ndev1 ") || strings.Contains(out, "\ndev0 ") {
		t.Fatalf("want a timeline of dev1 alone:\n%s", out)
	}
	if !strings.Contains(out, "device 1 utilization") || strings.Contains(out, "device 0 utilization") {
		t.Errorf("utilization not labelled by device:\n%s", out)
	}
}
