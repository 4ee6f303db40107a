// Package netsim injects deterministic network faults into HTTP
// clients. It is the network-layer sibling of cudasim's FaultPlan: where
// cudasim makes simulated GPUs fail, hang and throttle on a replayable
// schedule, netsim makes the coordinator↔worker HTTP path drop, delay,
// blackhole, partition and duplicate requests on one — so every messy
// cluster failure the paper's heterogeneous deployments hit (slow links,
// partitions, stale revenants) can be reproduced exactly, in unit tests,
// the e2e suite and live chaos drills, from a seed and a one-line plan.
//
// A plan is a comma-separated list of per-target clauses in the one
// fault-plan grammar (internal/faultplan):
//
//	<target>:<kind>@<value>
//
// where target is the host:port a request is addressed to ("*" matches
// every target) and kind@value is one of
//
//	error@R          fail the request with a transport error, probability R in (0,1]
//	latency@D±J      delay the request by D with uniform jitter ±J (±J optional)
//	hang@T           blackhole: requests starting at elapsed time >= T never
//	                 complete (they block until the request context ends)
//	partition@T+D    requests in the window [T, T+D) fail immediately with a
//	                 connection error; +D optional (open-ended partition)
//	dup@R            deliver the request twice, probability R in (0,1] —
//	                 at-least-once delivery against idempotency handling
//
// Times are Go durations measured from the transport's first request
// (tests can override the clock), so "partition@3s+4s" means "partition
// this worker 3 seconds into the screen, heal 4 seconds later".
package netsim

import (
	"fmt"
	"strings"
	"time"

	"github.com/metascreen/metascreen/internal/faultplan"
)

// The five fault kinds, in the order the transport applies them.
const (
	KindPartition = "partition"
	KindHang      = "hang"
	KindError     = "error"
	KindLatency   = "latency"
	KindDup       = "dup"
)

// Value is a clause's parsed value; which fields are meaningful depends
// on the rule's kind.
type Value struct {
	Rate   float64       // error, dup: per-request probability in (0,1]
	Base   time.Duration // latency: injected delay
	Jitter time.Duration // latency: uniform jitter, applied in [-Jitter, +Jitter]
	At     time.Duration // hang, partition: start of the fault window
	Dur    time.Duration // partition: window length; 0 = open-ended
}

// Rule is one parsed fault clause; its target is the host:port the rule
// applies to, "*" matching every target.
type Rule = faultplan.Rule[Value]

// Kinds is netsim's kind table.
var Kinds = faultplan.Table[Value]{
	Layer: "netsim",
	Kinds: []faultplan.Kind[Value]{
		faultplan.RateKind(KindError, rate),
		{Name: KindLatency, Parse: func(s string) (v Value, err error) {
			v.Base, v.Jitter, err = durations(s, "±", true, false)
			return v, err
		}, Format: func(v Value) string { return pair(v.Base, "±", v.Jitter) }},
		{Name: KindHang, Parse: func(s string) (v Value, err error) {
			v.At, err = duration(s, false)
			return v, err
		}, Format: func(v Value) string { return v.At.String() }},
		{Name: KindPartition, Parse: func(s string) (v Value, err error) {
			v.At, v.Dur, err = durations(s, "+", false, true)
			return v, err
		}, Format: func(v Value) string { return pair(v.At, "+", v.Dur) }},
		faultplan.RateKind(KindDup, rate),
	},
}

// rate is the field a rate kind fills.
func rate(v *Value) *float64 { return &v.Rate }

// Plan is an ordered set of fault rules. Order is preserved: rules apply
// in plan order within each kind, and String round-trips through
// ParsePlan rule for rule.
type Plan struct {
	Rules []Rule
}

// String renders the plan in the canonical comma-separated clause form;
// ParsePlan(p.String()) reproduces p exactly.
func (p Plan) String() string { return Kinds.String(p.Rules) }

// ParsePlan parses a network fault plan. An empty spec is an empty plan.
func ParsePlan(spec string) (Plan, error) {
	rules, err := Kinds.Parse(spec)
	return Plan{Rules: rules}, err
}

// duration parses a Go duration that is non-negative, or positive.
func duration(s string, positive bool) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%q is not a duration", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %v must be non-negative", d)
	}
	if positive && d == 0 {
		return 0, fmt.Errorf("duration %v must be positive", d)
	}
	return d, nil
}

// durations parses "A" or "A<sep>B"; B is 0 when absent.
func durations(s, sep string, positiveA, positiveB bool) (a, b time.Duration, err error) {
	as, bs, hasB := strings.Cut(s, sep)
	if a, err = duration(as, positiveA); err == nil && hasB {
		b, err = duration(bs, positiveB)
	}
	return a, b, err
}

// pair renders "A" or, when B is set, "A<sep>B".
func pair(a time.Duration, sep string, b time.Duration) string {
	if b > 0 {
		return a.String() + sep + b.String()
	}
	return a.String()
}
