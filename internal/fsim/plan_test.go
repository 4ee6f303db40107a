package fsim

import (
	"strings"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"*:eio@0.5",
		"*.wal:fsync-fail@1",
		"journal/*:torn-write@0.25",
		"checkpoints/*.json:bitrot@0.1",
		"*:enospc@4096",
		"*:crash@op37",
		"*:eio@0.5,*.json:enospc@1024,*:crash@op3",
		"a:b:eio@1", // glob containing a colon
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", spec, p.String(), err)
		}
		if p.String() != again.String() || len(p.Rules) != len(again.Rules) {
			t.Fatalf("round trip of %q: %q != %q", spec, p.String(), again.String())
		}
		for i := range p.Rules {
			if p.Rules[i] != again.Rules[i] {
				t.Fatalf("round trip of %q: rule %d %+v != %+v", spec, i, p.Rules[i], again.Rules[i])
			}
		}
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"eio@0.5",          // no glob
		"*:eio",            // no value
		"*:eio@0",          // rate out of range
		"*:eio@1.5",        // rate out of range
		"*:eio@NaN",        // NaN rate
		"*:flood@0.5",      // unknown kind
		"*:enospc@-1",      // negative budget
		"*:enospc@lots",    // non-integer budget
		"*:crash@op0",      // ops are 1-based
		"*:crash@whenever", // non-integer op
		":eio@0.5",         // empty glob
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", spec)
		}
	}
}

func TestParsePlanEmpty(t *testing.T) {
	for _, spec := range []string{"", " ", ",", " , "} {
		p, err := ParsePlan(spec)
		if err != nil || len(p.Rules) != 0 {
			t.Fatalf("ParsePlan(%q) = %+v, %v; want empty plan", spec, p, err)
		}
	}
}

func TestRuleMatches(t *testing.T) {
	cases := []struct {
		glob, path string
		want       bool
	}{
		{"*", "/data/journal/seg-00000001.wal", true},
		{"*.wal", "/data/journal/seg-00000001.wal", true},
		{"journal/*", "/data/journal/seg-00000001.wal", true},
		{"journal/*", "/data/checkpoints/job-000001.json", false},
		{"checkpoints/*.json", "/data/checkpoints/job-000001.json", true},
		{"seg-00000001.wal", "/data/journal/seg-00000001.wal", true},
		{"seg-00000002.wal", "/data/journal/seg-00000001.wal", false},
		{"*.json", "/data/journal/seg-00000001.wal", false},
	}
	for _, c := range cases {
		if got := matches(c.glob, c.path); got != c.want {
			t.Errorf("matches(%q, %q) = %v, want %v", c.glob, c.path, got, c.want)
		}
	}
}

func FuzzParseDiskPlan(f *testing.F) {
	f.Add("*:eio@0.5")
	f.Add("*.wal:fsync-fail@1,journal/*:torn-write@0.25")
	f.Add("*:enospc@4096,*:crash@op12")
	f.Add("a:b:bitrot@0.001")
	f.Add("*:crash@op18446744073709551615")
	f.Add("x:eio@NaN")
	f.Add(strings.Repeat("*:eio@1,", 64))
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		// Whatever parses must render canonically and round-trip exactly.
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("canonical form %q does not reparse: %v", p.String(), err)
		}
		if len(again.Rules) != len(p.Rules) {
			t.Fatalf("round trip changed rule count: %d != %d", len(again.Rules), len(p.Rules))
		}
		for i := range p.Rules {
			if p.Rules[i] != again.Rules[i] {
				t.Fatalf("rule %d changed in round trip: %+v != %+v", i, p.Rules[i], again.Rules[i])
			}
		}
	})
}
