package cudasim

import (
	"strings"
	"testing"
)

func TestParseFaultPlans(t *testing.T) {
	plans, err := ParseFaultPlans("dev0:fail@2.5, dev1:transient@0.3, dev1:throttle@0.5x", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("len = %d, want 2", len(plans))
	}
	if plans[0].FailAt != 2.5 {
		t.Errorf("dev0 FailAt = %v, want 2.5", plans[0].FailAt)
	}
	// Clauses for the same device merge into one plan, with the RNG seed
	// derived per device.
	if plans[1].TransientRate != 0.3 || plans[1].ThrottleFactor != 0.5 || plans[1].Seed != 8 {
		t.Errorf("dev1 plan = %+v", plans[1])
	}

	if plans, err := ParseFaultPlans("", 2, 0); err != nil || plans != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", plans, err)
	}

	bad := []string{
		"dev2:fail@1",      // device out of range
		"gpu0:fail@1",      // bad device prefix
		"dev0:fail",        // missing @value
		"dev0:fail@0",      // non-positive time
		"dev0:transient@1", // rate out of (0,1)
		"dev0:melt@1",      // unknown kind
		"dev0:fail@Inf",    // non-finite values
		"dev0:hang@NaN",
		"dev0:throttle@NaNx",
	}
	for _, spec := range bad {
		if _, err := ParseFaultPlans(spec, 2, 0); err == nil {
			t.Errorf("ParseFaultPlans(%q) accepted a bad spec", spec)
		}
	}
	if _, err := ParseFaultPlans("dev9:fail@1", 2, 0); err == nil || !strings.Contains(err.Error(), "2 devices") {
		t.Errorf("device-range error should name the device count, got %v", err)
	}
}
