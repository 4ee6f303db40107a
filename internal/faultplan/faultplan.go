// Package faultplan is the one fault-plan mechanism under the three
// fault injectors: cudasim's simulated devices, netsim's HTTP transport
// and fsim's filesystem. A plan is a comma-separated list of clauses
//
//	<target>:<kind>@<value>
//
// split at the clause's LAST colon, so a target may itself contain
// colons (host:port). Each layer supplies only its kind table — which
// kinds it knows and how each parses and prints its value — and its
// injector; the clause grammar, the finite-number and rate checks, the
// canonical form, the per-decision random lane and the bounded decision
// log live here once.
package faultplan

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/metascreen/metascreen/internal/rng"
)

// Kind is one entry of a layer's kind table: how a clause of that kind
// parses its value into the layer's fields V, and how it prints them
// back in canonical form.
type Kind[V any] struct {
	Name   string
	Parse  func(value string) (V, error)
	Format func(V) string
}

// Table is a layer's kind table.
type Table[V any] struct {
	Layer string // error prefix: "netsim"
	Kinds []Kind[V]
}

// Rule is one parsed clause.
type Rule[V any] struct {
	Target string
	Kind   string
	Value  V
}

// clause is one raw "<target>:<kind>@<value>" clause.
type clause struct{ text, target, kind, value string }

// split cuts spec into its clauses; blank clauses are skipped. layer
// prefixes the errors.
func split(spec, layer string) ([]clause, error) {
	var cs []clause
	for _, text := range strings.Split(spec, ",") {
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		cut := strings.LastIndex(text, ":")
		if cut <= 0 {
			return nil, fmt.Errorf("%s: bad fault clause %q (want target:kind@value)", layer, text)
		}
		kind, value, ok := strings.Cut(text[cut+1:], "@")
		if !ok {
			return nil, fmt.Errorf("%s: bad fault clause %q (missing @value)", layer, text)
		}
		cs = append(cs, clause{text, text[:cut], kind, value})
	}
	return cs, nil
}

// Names lists the table's kinds in table order.
func (t Table[V]) Names() []string {
	names := make([]string, len(t.Kinds))
	for i, k := range t.Kinds {
		names[i] = k.Name
	}
	return names
}

// kind looks a kind up by name.
func (t Table[V]) kind(name string) (Kind[V], bool) {
	for _, k := range t.Kinds {
		if k.Name == name {
			return k, true
		}
	}
	return Kind[V]{}, false
}

// Parse parses spec into rules in clause order; an empty spec is no
// rules. A rule's position in the result is its rule number in Lane.
func (t Table[V]) Parse(spec string) ([]Rule[V], error) {
	cs, err := split(spec, t.Layer)
	if err != nil {
		return nil, err
	}
	var rules []Rule[V]
	for _, c := range cs {
		k, ok := t.kind(c.kind)
		if !ok {
			return nil, fmt.Errorf("%s: unknown fault kind %q in %q (want one of %s)", t.Layer, c.kind, c.text, strings.Join(t.Names(), ", "))
		}
		v, err := k.Parse(c.value)
		if err != nil {
			return nil, fmt.Errorf("%s: bad fault clause %q: %v", t.Layer, c.text, err)
		}
		rules = append(rules, Rule[V]{Target: c.target, Kind: c.kind, Value: v})
	}
	return rules, nil
}

// Clause renders one rule in canonical form.
func (t Table[V]) Clause(r Rule[V]) string {
	k, _ := t.kind(r.Kind)
	var value string
	if k.Format != nil {
		value = k.Format(r.Value)
	}
	return r.Target + ":" + r.Kind + "@" + value
}

// String renders rules in the canonical comma-separated form;
// t.Parse(t.String(rules)) reproduces rules exactly.
func (t Table[V]) String(rules []Rule[V]) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = t.Clause(r)
	}
	return strings.Join(parts, ",")
}

// Route splits a plan spanning several layers into one spec per layer:
// each clause goes to the first layer whose kind table names its kind,
// in clause order, so every layer numbers its rules exactly as it would
// in a plan of its own clauses alone. A malformed clause, or a kind no
// layer names, is an error.
func Route(spec string, layers ...interface{ Names() []string }) ([]string, error) {
	cs, err := split(spec, "faultplan")
	if err != nil {
		return nil, err
	}
	specs := make([]string, len(layers))
	for _, c := range cs {
		i := slices.IndexFunc(layers, func(l interface{ Names() []string }) bool { return slices.Contains(l.Names(), c.kind) })
		if i < 0 {
			return nil, fmt.Errorf("faultplan: unknown fault kind %q in %q", c.kind, c.text)
		}
		if specs[i] != "" {
			specs[i] += ","
		}
		specs[i] += c.text
	}
	return specs, nil
}

// Finite parses a finite number: NaN and ±Inf are refused, since a
// comparison-based range check lets NaN through.
func Finite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

// Rate parses a probability in (0,1].
func Rate(s string) (float64, error) {
	v, err := Finite(s)
	if err != nil {
		return 0, err
	}
	if v <= 0 || v > 1 {
		return 0, fmt.Errorf("rate %v must be in (0,1]", v)
	}
	return v, nil
}

// RateKind is a kind whose value is a Rate stored in the field at
// returns.
func RateKind[V any](name string, at func(*V) *float64) Kind[V] {
	return Kind[V]{
		Name: name,
		Parse: func(s string) (v V, err error) {
			*at(&v), err = Rate(s)
			return v, err
		},
		Format: func(v V) string { return FormatFloat(*at(&v)) },
	}
}

// FormatFloat is the canonical form of a parsed number: the shortest
// text that parses back to the same float64.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Lane is the random source of one decision: a pure function of the
// seed, the key the decision is about (a request's target, an
// operation's path), the key's operation ordinal and the rule's
// position among its layer's rules, so concurrent operations on
// different keys cannot perturb each other's fault sequences.
func Lane(seed uint64, key string, ord, rule uint64) *rng.Source {
	h := fnv.New64a()
	io.WriteString(h, key)
	return rng.New(seed ^ h.Sum64()).Split(ord).Split(rule)
}

// MaxDecisions bounds a Log on long-running processes; past it, faults
// are still injected and logged through Logf but no longer stored.
const MaxDecisions = 65536

// Log is an injector's record of the faults it injected, in decision
// order. With the same seed, plan and operation sequence it is identical
// run to run — the replay contract tests and postmortems rely on.
type Log[D fmt.Stringer] struct {
	// Logf, when set, receives one line per decision.
	Logf func(format string, args ...any)

	mu sync.Mutex
	ds []D
}

// Record logs one decision.
func (l *Log[D]) Record(d D) {
	l.mu.Lock()
	if len(l.ds) < MaxDecisions {
		l.ds = append(l.ds, d)
	}
	l.mu.Unlock()
	if l.Logf != nil {
		l.Logf("%s", d)
	}
}

// Decisions returns a copy of the log so far.
func (l *Log[D]) Decisions() []D {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ds)
}
