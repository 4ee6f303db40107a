package cudasim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/metascreen/metascreen/internal/faultplan"
)

// FaultKinds is the device-fault kind table: fail@T (permanent loss at
// simulated second T), hang@T (operations starting at or after T never
// complete), transient@R (per-operation error rate R) and throttle@Fx
// (throughput multiplier F; the x is optional).
var FaultKinds = faultplan.Table[float64]{
	Layer: "cudasim",
	Kinds: []faultplan.Kind[float64]{
		deviceKind("fail", math.Inf(1)),
		deviceKind("hang", math.Inf(1)),
		deviceKind("transient", 1),
		deviceKind("throttle", 1),
	},
}

// deviceKind is a kind whose value is a finite number in (0, below).
func deviceKind(name string, below float64) faultplan.Kind[float64] {
	return faultplan.Kind[float64]{
		Name: name,
		Parse: func(s string) (float64, error) {
			if name == "throttle" {
				s = strings.TrimSuffix(s, "x")
			}
			v, err := faultplan.Finite(s)
			if err == nil && (v <= 0 || v >= below) {
				err = fmt.Errorf("%s %v must be in (0,%v)", name, v, below)
			}
			return v, err
		},
		Format: faultplan.FormatFloat,
	}
}

// ParseFaultPlans parses a device fault plan — the vsrun -faults flag
// and the service's ScreenRequest.Faults field — in FaultKinds, with
// "dev<i>" targets. Multiple clauses for the same device merge into one
// plan. An empty spec returns nil. The seed derives each device's
// transient-error RNG so faulted runs stay reproducible.
func ParseFaultPlans(spec string, devices int, seed uint64) ([]FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	rules, err := FaultKinds.Parse(spec)
	if err != nil {
		return nil, err
	}
	plans := make([]FaultPlan, devices)
	for _, r := range rules {
		num, ok := strings.CutPrefix(r.Target, "dev")
		idx, err := strconv.Atoi(num)
		if !ok || err != nil || idx < 0 || idx >= devices {
			return nil, fmt.Errorf("cudasim: bad device in fault clause %q (want dev<i> on a machine with %d devices)", FaultKinds.Clause(r), devices)
		}
		p := &plans[idx]
		switch r.Kind {
		case "fail":
			p.FailAt = r.Value
		case "hang":
			p.HangAt = r.Value
		case "transient":
			p.TransientRate = r.Value
			p.Seed = seed + uint64(idx)
		case "throttle":
			p.ThrottleFactor = r.Value
		}
	}
	return plans, nil
}
