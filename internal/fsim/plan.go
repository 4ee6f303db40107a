// Package fsim injects deterministic storage faults under the service's
// durable state. It is the filesystem sibling of cudasim's device
// FaultPlan and netsim's network plan — the third leg of the fault
// tripod: where cudasim makes simulated GPUs fail and netsim makes the
// coordinator↔worker path drop and partition, fsim makes the bytes under
// the service's WAL and the dist coordinator journal fail the
// way real disks do — fsync errors, disk-full, torn writes, bit rot and
// power loss — on a replayable schedule, from a seed and a one-line plan.
//
// A plan is a comma-separated list of per-path clauses in the one
// fault-plan grammar (internal/faultplan):
//
//	<path-glob>:<kind>@<value>
//
// where path-glob matches the file a faultable operation touches ("*"
// matches every path; otherwise the glob is matched, path.Match-style,
// against the slash-separated path and against every suffix of it that
// starts at a path component, so "journal/*" matches any file directly
// inside any journal directory) and kind@value is one of
//
//	eio@R          reads, writes, renames, removes and truncates fail
//	               with EIO, probability R in (0,1]
//	enospc@N       disk-full: after N bytes written through matching
//	               paths, further writes fail with ENOSPC until
//	               FreeSpace is called
//	fsync-fail@R   file and directory fsyncs fail with EIO, probability
//	               R in (0,1] — the fsyncgate fault
//	torn-write@R   a write persists only a deterministic prefix and
//	               reports EIO, probability R in (0,1]
//	bitrot@R       a read returns the stored bytes with one
//	               deterministically chosen bit flipped, probability R
//	               in (0,1]
//	crash@opN      power loss: the N-th mutating operation (1-based,
//	               counted across all paths) and every one after it
//	               fail with ErrCrashed, and every file loses the bytes
//	               it received after its last successful Sync (the
//	               synced length follows a file across Rename) —
//	               nothing further lands
//
// Every probabilistic decision is a pure function of the seed, the path,
// the per-path operation ordinal and the rule's plan position, so a
// fixed seed+plan replays the identical decision log regardless of
// goroutine interleaving — the same contract netsim's transport gives
// the network tests.
package fsim

import (
	"fmt"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/metascreen/metascreen/internal/faultplan"
)

// The six fault kinds.
const (
	KindEIO       = "eio"
	KindENOSPC    = "enospc"
	KindFsyncFail = "fsync-fail"
	KindTornWrite = "torn-write"
	KindBitrot    = "bitrot"
	KindCrash     = "crash"
)

// Value is a clause's parsed value; which fields are meaningful depends
// on the rule's kind.
type Value struct {
	Rate  float64 // eio, fsync-fail, torn-write, bitrot: probability in (0,1]
	After int64   // enospc: byte budget before writes start failing
	Op    uint64  // crash: first mutating-op index (1-based) that fails
}

// Rule is one parsed fault clause; its target is the path glob the rule
// applies to, "*" matching every path.
type Rule = faultplan.Rule[Value]

// matches reports whether a path glob applies to a path. The glob is
// tried against the whole slash-normalized path and against every suffix
// that starts at a path component, so relative globs like "journal/*" or
// "*.json" apply no matter where the data dir lives.
func matches(glob, p string) bool {
	if glob == "*" {
		return true
	}
	s := filepath.ToSlash(p)
	if ok, _ := path.Match(glob, s); ok {
		return true
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			if ok, _ := path.Match(glob, s[i+1:]); ok {
				return true
			}
		}
	}
	return false
}

// Kinds is fsim's kind table.
var Kinds = faultplan.Table[Value]{
	Layer: "fsim",
	Kinds: []faultplan.Kind[Value]{
		faultplan.RateKind(KindEIO, rate),
		{Name: KindENOSPC, Parse: parseBytes, Format: func(v Value) string { return strconv.FormatInt(v.After, 10) }},
		faultplan.RateKind(KindFsyncFail, rate),
		faultplan.RateKind(KindTornWrite, rate),
		faultplan.RateKind(KindBitrot, rate),
		{Name: KindCrash, Parse: parseOp, Format: func(v Value) string { return "op" + strconv.FormatUint(v.Op, 10) }},
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

// ParsePlan parses a disk fault plan. An empty spec is an empty plan.
func ParsePlan(spec string) (Plan, error) {
	rules, err := Kinds.Parse(spec)
	return Plan{Rules: rules}, err
}

func parseBytes(s string) (v Value, err error) {
	v.After, err = strconv.ParseInt(s, 10, 64)
	if err != nil {
		return v, fmt.Errorf("byte budget %q is not an integer", s)
	}
	if v.After < 0 {
		return v, fmt.Errorf("byte budget %d must be non-negative", v.After)
	}
	return v, nil
}

func parseOp(s string) (v Value, err error) {
	s = strings.TrimPrefix(s, "op")
	v.Op, err = strconv.ParseUint(s, 10, 64)
	if err != nil {
		return v, fmt.Errorf("op index %q is not opN", s)
	}
	if v.Op == 0 {
		return v, fmt.Errorf("op index must be >= 1 (ops are 1-based)")
	}
	return v, nil
}
