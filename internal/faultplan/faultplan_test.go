package faultplan_test

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/faultplan"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/netsim"
)

func TestFiniteAndRate(t *testing.T) {
	for _, s := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400", "x", ""} {
		if v, err := faultplan.Finite(s); err == nil {
			t.Errorf("Finite(%q) = %v, want error", s, v)
		}
	}
	for _, s := range []string{"0", "-0.5", "1.0000001", "NaN", "Inf"} {
		if v, err := faultplan.Rate(s); err == nil {
			t.Errorf("Rate(%q) = %v, want error", s, v)
		}
	}
	for s, want := range map[string]float64{"1": 1, "0.25": 0.25, "1e-9": 1e-9} {
		if v, err := faultplan.Rate(s); err != nil || v != want {
			t.Errorf("Rate(%q) = %v, %v; want %v", s, v, err, want)
		}
	}
}

func TestRoute(t *testing.T) {
	specs, err := faultplan.Route(" w1:80:error@0.5, *.wal:eio@0.1 ,w1:80:latency@1ms,*:enospc@64,", netsim.Kinds, fsim.Kinds)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"w1:80:error@0.5,w1:80:latency@1ms", "*.wal:eio@0.1,*:enospc@64"}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("Route = %q, want %q", specs, want)
	}
	if specs, err := faultplan.Route("", netsim.Kinds, fsim.Kinds); err != nil || !reflect.DeepEqual(specs, []string{"", ""}) {
		t.Fatalf("Route(\"\") = %q, %v; want two empty specs", specs, err)
	}
	for _, spec := range []string{"garbage", "w1:error", "w1:zap@1", "*:eio@0.1,w1:fail@1"} {
		if _, err := faultplan.Route(spec, netsim.Kinds, fsim.Kinds); err == nil {
			t.Errorf("Route(%q) accepted", spec)
		}
	}
}

// TestChaosKindsDisjoint: Route sends a -chaos clause to the first
// layer naming its kind, so the network and disk kinds must not overlap,
// or a clause would silently land in the wrong layer.
func TestChaosKindsDisjoint(t *testing.T) {
	for _, n := range netsim.Kinds.Names() {
		if slices.Contains(fsim.Kinds.Names(), n) {
			t.Errorf("kind %q is both a network and a disk kind", n)
		}
	}
}

func TestLogBounded(t *testing.T) {
	var lines int
	l := faultplan.Log[decision]{Logf: func(string, ...any) { lines++ }}
	for i := 0; i < faultplan.MaxDecisions+10; i++ {
		l.Record(decision(i))
	}
	got := l.Decisions()
	if len(got) != faultplan.MaxDecisions || got[len(got)-1] != decision(faultplan.MaxDecisions-1) {
		t.Fatalf("log kept %d decisions ending at %v, want the first %d", len(got), got[len(got)-1], faultplan.MaxDecisions)
	}
	if lines != faultplan.MaxDecisions+10 {
		t.Fatalf("Logf saw %d decisions, want every one", lines)
	}
}

type decision int

func (d decision) String() string { return "d" }

// finite reports whether every float64 reachable in v is finite.
func finite(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return !math.IsNaN(v.Float()) && !math.IsInf(v.Float(), 0)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !finite(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !finite(v.Field(i)) {
				return false
			}
		}
	}
	return true
}

// roundTrip checks one kind table on spec: whatever parses is finite and
// its canonical form re-parses to the same rules.
func roundTrip[V any](t *testing.T, table faultplan.Table[V], spec string) {
	rules, err := table.Parse(spec)
	if err != nil {
		return
	}
	if !finite(reflect.ValueOf(rules)) {
		t.Fatalf("%s accepted a non-finite value in %q: %+v", table.Layer, spec, rules)
	}
	canon := table.String(rules)
	again, err := table.Parse(canon)
	if err != nil {
		t.Fatalf("%s: canonical form %q of accepted %q does not re-parse: %v", table.Layer, canon, spec, err)
	}
	if !reflect.DeepEqual(again, rules) {
		t.Fatalf("%s: %q re-parsed to %+v, want %+v", table.Layer, canon, again, rules)
	}
}

// FuzzParse drives all three kind tables: parsing never panics, never
// yields a non-finite value, and every accepted plan's canonical form
// re-parses to the identical rules. cudasim's per-device merge and the
// -chaos split are driven too.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"*:error@0.25",
		"127.0.0.1:8081:partition@3s+4s,127.0.0.1:8081:latency@20ms±10ms",
		"w1:hang@2s,w2:dup@0.5",
		"w1:error@1,w1:error@0.000001",
		"::::@@@@±±±+++",
		"*.wal:fsync-fail@1,journal/*:torn-write@0.25",
		"*:enospc@4096,*:crash@op12",
		"a:b:bitrot@0.001",
		"*:crash@op18446744073709551615",
		"x:eio@NaN",
		"dev0:fail@2.5, dev1:transient@0.3, dev1:throttle@0.5x",
		"dev0:throttle@NaN,dev0:fail@Inf,dev0:transient@-Inf",
		"10.0.0.2:8081:partition@30s+10s,*.wal:fsync-fail@0.01",
		strings.Repeat("*:eio@1,", 64),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		roundTrip(t, netsim.Kinds, spec)
		roundTrip(t, fsim.Kinds, spec)
		roundTrip(t, cudasim.FaultKinds, spec)
		if plans, err := cudasim.ParseFaultPlans(spec, 4, 1); err == nil && !finite(reflect.ValueOf(plans)) {
			t.Fatalf("ParseFaultPlans accepted a non-finite value in %q: %+v", spec, plans)
		}
		if specs, err := faultplan.Route(spec, netsim.Kinds, fsim.Kinds); err == nil {
			for _, s := range specs {
				roundTrip(t, netsim.Kinds, s)
				roundTrip(t, fsim.Kinds, s)
			}
		}
	})
}
