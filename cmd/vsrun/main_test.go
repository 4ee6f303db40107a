package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags("M3", 0, 5, 1, 0.05, 0, false, ""); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags("M3", 16, 0, 4, 1, 0, false, ""); err != nil {
		t.Errorf("valid multi-start flags rejected: %v", err)
	}
	if err := checkFlags("M3", 16, 0, 1, 1, 0.5, true, "run.trace.json"); err != nil {
		t.Errorf("valid single-run flags rejected: %v", err)
	}
	for _, mh := range []string{"M1", "M2", "M4"} {
		if err := checkFlags(mh, 0, 5, 1, 0.05, 0, false, ""); err != nil {
			t.Errorf("-mh %s rejected: %v", mh, err)
		}
	}
	for name, err := range map[string]error{
		"mh sa":                       checkFlags("sa", 0, 5, 1, 0.05, 0, false, ""),
		"mh m3":                       checkFlags("m3", 0, 5, 1, 0.05, 0, false, ""),
		"mh empty":                    checkFlags("", 0, 5, 1, 0.05, 0, false, ""),
		"mh-scale 2":                  checkFlags("M3", 0, 5, 1, 2, 0, false, ""),
		"spots -3":                    checkFlags("M3", -3, 5, 1, 0.05, 0, false, ""),
		"top -1":                      checkFlags("M3", 0, -1, 1, 0.05, 0, false, ""),
		"multistart 0":                checkFlags("M3", 0, 5, 0, 0.05, 0, false, ""),
		"mh-scale 0":                  checkFlags("M3", 0, 5, 1, 0, 0, false, ""),
		"mh-scale NaN":                checkFlags("M3", 0, 5, 1, math.NaN(), 0, false, ""),
		"mh-scale +Inf":               checkFlags("M3", 0, 5, 1, math.Inf(1), 0, false, ""),
		"budget -1":                   checkFlags("M3", 0, 5, 1, 0.05, -1, false, ""),
		"budget NaN":                  checkFlags("M3", 0, 5, 1, 0.05, math.NaN(), false, ""),
		"budget +Inf":                 checkFlags("M3", 0, 5, 1, 0.05, math.Inf(1), false, ""),
		"multistart 2 with budget":    checkFlags("M3", 0, 5, 2, 0.05, 0.5, false, ""),
		"multistart 2 with gantt":     checkFlags("M3", 0, 5, 2, 0.05, 0, true, ""),
		"multistart 2 with trace-out": checkFlags("M3", 0, 5, 2, 0.05, 0, false, "run.trace.json"),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
