package main

import (
	"math"
	"testing"
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
