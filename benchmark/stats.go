package main

import (
	"math"
	"slices"
)

// timing summarises one set of latency samples the way the choosing-metrics
// guide asks: the median, the highest percentile that still has at least ten
// samples beyond it, and the sample count that justifies both.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// TailPercentile is 0 when fewer than 100 samples make even p90
	// unreportable; Tail then repeats the maximum for the record.
	TailPercentile float64 `json:"tail_percentile"`
	Tail           float64 `json:"tail"`
}

// tailLadder lists the percentiles a report may quote, ascending.
var tailLadder = []float64{90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder with at least
// ten of n samples beyond it, or ok=false when not even p90 qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		// Integer arithmetic in tenths of a percent: float rounding must
		// not turn "exactly ten beyond" into nine.
		if n*(1000-int(math.Round(q*10))) >= 10*1000 {
			p, ok = q, true
		}
	}
	return p, ok
}

// quantile returns the q-quantile (0..1) of ascending samples by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func summarize(samples []float64) timing {
	s := sortedCopy(samples)
	t := timing{N: len(s), Median: quantile(s, 0.5)}
	if len(s) == 0 {
		return t
	}
	if p, ok := tailPercentile(len(s)); ok {
		t.TailPercentile, t.Tail = p, quantile(s, p/100)
	} else {
		t.Tail = s[len(s)-1]
	}
	return t
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) returns (the "exclusive" method), so the
// number matches what the benchmark's acceptance rule computes.
func quartileSpread(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
