package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags("M3", 10, 6, 0.03); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags("M3", 1, 0, 1); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	for _, mh := range []string{"M1", "M2", "M4"} {
		if err := checkFlags(mh, 10, 6, 0.03); err != nil {
			t.Errorf("-mh %s rejected: %v", mh, err)
		}
	}
	for name, err := range map[string]error{
		"mh M9":         checkFlags("M9", 10, 6, 0.03),
		"mh empty":      checkFlags("", 10, 6, 0.03),
		"library 0":     checkFlags("M3", 0, 6, 0.03),
		"spots -3":      checkFlags("M3", 10, -3, 0.03),
		"mh-scale 0":    checkFlags("M3", 10, 6, 0),
		"mh-scale 2":    checkFlags("M3", 10, 6, 2),
		"mh-scale NaN":  checkFlags("M3", 10, 6, math.NaN()),
		"mh-scale +Inf": checkFlags("M3", 10, 6, math.Inf(1)),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
