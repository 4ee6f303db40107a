package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(0, 5, 1, 0.05, 0, false, ""); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags(16, 0, 4, 1, 0, false, ""); err != nil {
		t.Errorf("valid multi-start flags rejected: %v", err)
	}
	if err := checkFlags(16, 0, 1, 1, 0.5, true, "run.trace.json"); err != nil {
		t.Errorf("valid single-run flags rejected: %v", err)
	}
	for name, err := range map[string]error{
		"spots -3":                    checkFlags(-3, 5, 1, 0.05, 0, false, ""),
		"top -1":                      checkFlags(0, -1, 1, 0.05, 0, false, ""),
		"multistart 0":                checkFlags(0, 5, 0, 0.05, 0, false, ""),
		"mh-scale 0":                  checkFlags(0, 5, 1, 0, 0, false, ""),
		"mh-scale NaN":                checkFlags(0, 5, 1, math.NaN(), 0, false, ""),
		"mh-scale +Inf":               checkFlags(0, 5, 1, math.Inf(1), 0, false, ""),
		"budget -1":                   checkFlags(0, 5, 1, 0.05, -1, false, ""),
		"budget NaN":                  checkFlags(0, 5, 1, 0.05, math.NaN(), false, ""),
		"budget +Inf":                 checkFlags(0, 5, 1, 0.05, math.Inf(1), false, ""),
		"multistart 2 with budget":    checkFlags(0, 5, 2, 0.05, 0.5, false, ""),
		"multistart 2 with gantt":     checkFlags(0, 5, 2, 0.05, 0, true, ""),
		"multistart 2 with trace-out": checkFlags(0, 5, 2, 0.05, 0, false, "run.trace.json"),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
