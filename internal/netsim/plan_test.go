package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestParsePlanClauses(t *testing.T) {
	cases := []struct {
		spec string
		want []Rule
	}{
		{"", nil},
		{" , ", nil},
		{"*:error@0.25", []Rule{{Target: "*", Kind: KindError, Rate: 0.25}}},
		{"127.0.0.1:8081:error@1", []Rule{{Target: "127.0.0.1:8081", Kind: KindError, Rate: 1}}},
		{"w1:latency@50ms", []Rule{{Target: "w1", Kind: KindLatency, Base: 50 * time.Millisecond}}},
		{"w1:latency@50ms±20ms", []Rule{{Target: "w1", Kind: KindLatency, Base: 50 * time.Millisecond, Jitter: 20 * time.Millisecond}}},
		{"w1:hang@0s", []Rule{{Target: "w1", Kind: KindHang}}},
		{"w1:hang@2s", []Rule{{Target: "w1", Kind: KindHang, At: 2 * time.Second}}},
		{"w1:partition@3s", []Rule{{Target: "w1", Kind: KindPartition, At: 3 * time.Second}}},
		{"w1:partition@3s+4s", []Rule{{Target: "w1", Kind: KindPartition, At: 3 * time.Second, Dur: 4 * time.Second}}},
		{"w1:dup@0.5", []Rule{{Target: "w1", Kind: KindDup, Rate: 0.5}}},
		{
			"a:1:error@0.1, b:2:partition@1s+2s ,*:dup@0.3",
			[]Rule{
				{Target: "a:1", Kind: KindError, Rate: 0.1},
				{Target: "b:2", Kind: KindPartition, At: time.Second, Dur: 2 * time.Second},
				{Target: "*", Kind: KindDup, Rate: 0.3},
			},
		},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(p.Rules, c.want) {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", c.spec, p.Rules, c.want)
		}
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"nonsense",
		"w1:zap@1",            // unknown kind
		"w1:error",            // missing @value
		"w1:error@0",          // rate lower bound
		"w1:error@1.5",        // rate upper bound
		"w1:error@-0.1",       // negative rate
		"w1:error@x",          // non-numeric rate
		"w1:dup@0",            // dup rate bound
		"w1:dup@2",            // dup rate bound
		"w1:latency@0s",       // latency must be positive
		"w1:latency@-5ms",     // negative latency
		"w1:latency@5ms±-1ms", // negative jitter
		"w1:latency@abc",      // non-duration
		"w1:hang@-1s",         // negative start
		"w1:hang@7",           // bare number is not a duration
		"w1:partition@-1s",    // negative start
		"w1:partition@1s+0s",  // window must be positive
		"w1:partition@1s+-2s",
		":error@0.5",         // empty target
		"error@0.5",          // no target separator
		"w1:error@0.5,bogus", // one bad clause poisons the plan
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a malformed spec", spec)
		}
	}
}

// randomRule generates a valid rule from a seeded source, for the
// round-trip property: every generatable plan must print and re-parse to
// itself.
func randomRule(r *rand.Rand) Rule {
	targets := []string{"*", "w1", "127.0.0.1:8081", "node-3:9999"}
	rule := Rule{Target: targets[r.Intn(len(targets))]}
	// Durations in whole milliseconds: Duration.String round-trips any
	// duration, but keeping values readable mirrors real plans.
	ms := func(max int) time.Duration { return time.Duration(1+r.Intn(max)) * time.Millisecond }
	switch r.Intn(5) {
	case 0:
		rule.Kind, rule.Rate = KindError, float64(1+r.Intn(1000))/1000
	case 1:
		rule.Kind, rule.Base = KindLatency, ms(5000)
		if r.Intn(2) == 0 {
			rule.Jitter = ms(1000)
		}
	case 2:
		rule.Kind, rule.At = KindHang, time.Duration(r.Intn(10000))*time.Millisecond
	case 3:
		rule.Kind, rule.At = KindPartition, time.Duration(r.Intn(10000))*time.Millisecond
		if r.Intn(2) == 0 {
			rule.Dur = ms(10000)
		}
	default:
		rule.Kind, rule.Rate = KindDup, float64(1+r.Intn(1000))/1000
	}
	return rule
}

func TestPlanRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		var p Plan
		for n := r.Intn(6); n > 0; n-- {
			p.Rules = append(p.Rules, randomRule(r))
		}
		spec := p.String()
		got, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("round %d: ParsePlan(%q): %v", i, spec, err)
		}
		if !reflect.DeepEqual(got.Rules, p.Rules) {
			t.Fatalf("round %d: %q round-tripped to %+v, want %+v", i, spec, got.Rules, p.Rules)
		}
	}
}

// FuzzParsePlan: the parser must never panic, and every spec it accepts
// must render canonically and re-parse to the identical plan.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"*:error@0.25",
		"127.0.0.1:8081:partition@3s+4s,127.0.0.1:8081:latency@20ms±10ms",
		"w1:hang@2s,w2:dup@0.5",
		"w1:latency@50ms±20ms",
		"w1:error@1,w1:error@0.000001",
		"::::@@@@±±±+++",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(again.Rules, p.Rules) {
			t.Fatalf("spec %q: canonical %q re-parsed to %+v, want %+v", spec, canon, again.Rules, p.Rules)
		}
	})
}
