// Package fsim injects deterministic storage faults under the service's
// durable state. It is the filesystem sibling of cudasim's device
// FaultPlan and netsim's network plan — the third leg of the fault
// tripod: where cudasim makes simulated GPUs fail and netsim makes the
// coordinator↔worker path drop and partition, fsim makes the bytes under
// the service's WAL and the dist coordinator journal fail the
// way real disks do — fsync errors, disk-full, torn writes, bit rot and
// power loss — on a replayable schedule, from a seed and a one-line plan.
//
// A plan is a comma-separated list of per-path clauses in the same
// spirit as the -faults and -chaos DSLs:
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
	"math"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// Kind is a fault clause's kind.
type Kind string

// The six fault kinds.
const (
	KindEIO       Kind = "eio"
	KindENOSPC    Kind = "enospc"
	KindFsyncFail Kind = "fsync-fail"
	KindTornWrite Kind = "torn-write"
	KindBitrot    Kind = "bitrot"
	KindCrash     Kind = "crash"
)

// Rule is one parsed fault clause. Which value fields are meaningful
// depends on Kind.
type Rule struct {
	Glob string // path glob the rule applies to; "*" matches every path
	Kind Kind

	Rate  float64 // eio, fsync-fail, torn-write, bitrot: probability in (0,1]
	After int64   // enospc: byte budget before writes start failing
	Op    uint64  // crash: first mutating-op index (1-based) that fails
}

// matches reports whether the rule applies to a path. The glob is tried
// against the whole slash-normalized path and against every suffix that
// starts at a path component, so relative globs like "journal/*" or
// "*.json" apply no matter where the data dir lives.
func (r Rule) matches(p string) bool {
	if r.Glob == "*" {
		return true
	}
	s := filepath.ToSlash(p)
	if ok, _ := path.Match(r.Glob, s); ok {
		return true
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			if ok, _ := path.Match(r.Glob, s[i+1:]); ok {
				return true
			}
		}
	}
	return false
}

// value renders the clause's value part in canonical form.
func (r Rule) value() string {
	switch r.Kind {
	case KindEIO, KindFsyncFail, KindTornWrite, KindBitrot:
		return strconv.FormatFloat(r.Rate, 'g', -1, 64)
	case KindENOSPC:
		return strconv.FormatInt(r.After, 10)
	case KindCrash:
		return "op" + strconv.FormatUint(r.Op, 10)
	}
	return ""
}

// String renders the clause in the canonical form ParsePlan accepts.
func (r Rule) String() string {
	return r.Glob + ":" + string(r.Kind) + "@" + r.value()
}

// Plan is an ordered set of fault rules. Order is preserved: rules apply
// in plan order within each kind, and String round-trips through
// ParsePlan rule for rule.
type Plan struct {
	Rules []Rule
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Rules) == 0 }

// String renders the plan in the canonical comma-separated clause form;
// ParsePlan(p.String()) reproduces p exactly.
func (p Plan) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the disk-fault DSL. An empty spec is an empty plan.
// Globs may contain colons, so each clause is split at its LAST colon:
// everything before it is the glob, everything after is kind@value.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		cut := strings.LastIndex(clause, ":")
		if cut <= 0 {
			return Plan{}, fmt.Errorf("fsim: bad fault clause %q (want path-glob:kind@value)", clause)
		}
		glob, rest := clause[:cut], clause[cut+1:]
		kindPart, valPart, ok := strings.Cut(rest, "@")
		if !ok {
			return Plan{}, fmt.Errorf("fsim: bad fault clause %q (missing @value)", clause)
		}
		r := Rule{Glob: glob, Kind: Kind(kindPart)}
		var err error
		switch r.Kind {
		case KindEIO, KindFsyncFail, KindTornWrite, KindBitrot:
			r.Rate, err = parseRate(valPart)
		case KindENOSPC:
			r.After, err = parseBytes(valPart)
		case KindCrash:
			r.Op, err = parseOp(valPart)
		default:
			err = fmt.Errorf("unknown fault kind %q (want eio, enospc, fsync-fail, torn-write, bitrot or crash)", kindPart)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fsim: bad fault clause %q: %v", clause, err)
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("rate %q is not a number", s)
	}
	if math.IsNaN(v) || v <= 0 || v > 1 {
		return 0, fmt.Errorf("rate %v must be in (0,1]", v)
	}
	return v, nil
}

func parseBytes(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("byte budget %q is not an integer", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("byte budget %d must be non-negative", v)
	}
	return v, nil
}

func parseOp(s string) (uint64, error) {
	s = strings.TrimPrefix(s, "op")
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("op index %q is not opN", s)
	}
	if v == 0 {
		return 0, fmt.Errorf("op index must be >= 1 (ops are 1-based)")
	}
	return v, nil
}
