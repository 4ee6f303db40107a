package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(0, 5, 1, 0.05, 0); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags(16, 0, 4, 1, 0.5); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	for name, err := range map[string]error{
		"spots -3":      checkFlags(-3, 5, 1, 0.05, 0),
		"top -1":        checkFlags(0, -1, 1, 0.05, 0),
		"multistart 0":  checkFlags(0, 5, 0, 0.05, 0),
		"mh-scale 0":    checkFlags(0, 5, 1, 0, 0),
		"mh-scale NaN":  checkFlags(0, 5, 1, math.NaN(), 0),
		"mh-scale +Inf": checkFlags(0, 5, 1, math.Inf(1), 0),
		"budget -1":     checkFlags(0, 5, 1, 0.05, -1),
		"budget NaN":    checkFlags(0, 5, 1, 0.05, math.NaN()),
		"budget +Inf":   checkFlags(0, 5, 1, 0.05, math.Inf(1)),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
