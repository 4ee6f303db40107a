// Package metricstest is test support for /metrics: the exposition lint
// every such test in the repo runs, over in-process registries and live
// scrapes alike, and the stalled-client writer the scrape tests park.
package metricstest

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var familyName = regexp.MustCompile(`^metascreen_[a-z0-9_]+$`)

// Lint checks a Prometheus text exposition against the conventions both
// roles keep: every family has exactly one HELP then one TYPE before its
// first sample, names match ^metascreen_[a-z0-9_]+$, counters end in
// _total, no series repeats, values are numbers, and each histogram's
// buckets never decrease and end in le="+Inf" equal to its _count. It
// returns every violation found, joined.
func Lint(text string) error {
	var errs []error
	help, kind := map[string]int{}, map[string]string{}
	sampled, series := map[string]bool{}, map[string]bool{}
	type bucket struct {
		le string
		n  float64
	}
	last := map[string]bucket{} // histogram `name{labels-without-le` -> its latest bucket line
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		bad := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("line %d: %s", i+1, fmt.Sprintf(format, args...)))
		}
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			f := strings.SplitN(rest, " ", 3)
			if len(f) < 3 || (f[0] != "HELP" && f[0] != "TYPE") {
				bad("malformed comment %q", line)
				continue
			}
			switch name := f[1]; {
			case sampled[name]:
				bad("%s of %s after its first sample", f[0], name)
			case f[0] == "HELP":
				if help[name]++; help[name] > 1 || !familyName.MatchString(name) {
					bad("HELP of %s repeats or the name is off-convention", name)
				}
			case help[name] != 1 || kind[name] != "":
				bad("TYPE of %s repeats or has no HELP before it", name)
			default:
				kind[name] = f[2]
				if f[2] == "counter" && !strings.HasSuffix(name, "_total") {
					bad("counter %s does not end in _total", name)
				}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			bad("malformed sample %q", line)
			continue
		}
		s, value := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			bad("series %s has non-numeric value %q", s, value)
		}
		if series[s] {
			bad("duplicate series %s", s)
		}
		series[s] = true
		name, labels, _ := strings.Cut(strings.TrimSuffix(s, "}"), "{")
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, sfx); ok && kind[base] == "histogram" {
				fam, suffix = base, sfx
			}
		}
		if kind[fam] == "" {
			bad("sample %s before the HELP and TYPE of its family", s)
		}
		sampled[fam] = true
		switch at := strings.LastIndex(labels, `le="`); {
		case suffix == "_bucket" && at < 0:
			bad("bucket %s has no le label", s)
		case suffix == "_bucket":
			key := fam + "{" + strings.TrimSuffix(labels[:at], ",")
			if v < last[key].n {
				bad("bucket %s decreases", s)
			}
			last[key] = bucket{strings.TrimSuffix(labels[at+4:], `"`), v}
		case suffix == "_count":
			if b := last[fam+"{"+labels]; b.le != "+Inf" || b.n != v {
				bad(`%s = %g, but its last bucket is le=%q = %g`, s, v, b.le, b.n)
			}
		}
	}
	for name := range help {
		if kind[name] == "" {
			errs = append(errs, fmt.Errorf("family %s has HELP but no TYPE", name))
		}
	}
	return errors.Join(errs...)
}
