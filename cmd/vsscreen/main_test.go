package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(10, 6, 0.03); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags(1, 0, 1); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	for name, err := range map[string]error{
		"library 0":     checkFlags(0, 6, 0.03),
		"spots -3":      checkFlags(10, -3, 0.03),
		"mh-scale 0":    checkFlags(10, 6, 0),
		"mh-scale 2":    checkFlags(10, 6, 2),
		"mh-scale NaN":  checkFlags(10, 6, math.NaN()),
		"mh-scale +Inf": checkFlags(10, 6, math.Inf(1)),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
