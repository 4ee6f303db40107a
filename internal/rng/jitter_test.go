package rng

import (
	"fmt"
	"testing"
	"time"
)

// TestJitterFactorProperties drives JitterFactor with generated keys,
// sequence numbers, and spreads, and checks the contract every caller
// relies on: bounded band, determinism, and enough dispersion that a
// fleet sharing one nominal delay does not fire in lockstep.
func TestJitterFactorProperties(t *testing.T) {
	src := New(42)
	for trial := 0; trial < 200; trial++ {
		spread := src.Range(0.05, 0.95)
		key := fmt.Sprintf("node-%d.example:%d", src.Intn(1000), src.Intn(65536))
		distinct := map[float64]bool{}
		for seq := uint64(0); seq < 64; seq++ {
			f := JitterFactor(spread, key, seq)
			if f < 1-spread || f >= 1+spread {
				t.Fatalf("spread %.3f key %q seq %d: factor %.6f outside [%.3f, %.3f)",
					spread, key, seq, f, 1-spread, 1+spread)
			}
			if f != JitterFactor(spread, key, seq) {
				t.Fatalf("factor not deterministic for key %q seq %d", key, seq)
			}
			distinct[f] = true
		}
		if len(distinct) < 16 {
			t.Fatalf("spread %.3f key %q: only %d distinct factors over 64 seqs", spread, key, len(distinct))
		}
	}
}

// TestJitterZeroSpreadIsIdentity pins the degenerate edge: spread 0 must
// return the nominal duration untouched, whatever the key.
func TestJitterZeroSpreadIsIdentity(t *testing.T) {
	for seq := uint64(0); seq < 10; seq++ {
		if got := Jitter(time.Second, 0, "anything", seq); got != time.Second {
			t.Fatalf("seq %d: zero spread changed the delay: %v", seq, got)
		}
	}
}

// TestJitterScalesWithDuration checks the factor is independent of the
// duration: doubling d doubles the jittered delay, up to the 1ns
// truncation of the float->Duration conversion.
func TestJitterScalesWithDuration(t *testing.T) {
	for seq := uint64(1); seq <= 8; seq++ {
		d1 := Jitter(250*time.Millisecond, 0.5, "w1", seq)
		d2 := Jitter(500*time.Millisecond, 0.5, "w1", seq)
		if diff := d2 - 2*d1; diff < -time.Nanosecond || diff > time.Nanosecond {
			t.Fatalf("seq %d: jitter not linear in d: %v vs %v", seq, d1, d2)
		}
	}
}

// TestJitterKeySeparation: two distinct keys must not share a factor
// schedule, or the herd the jitter exists to break up re-forms.
func TestJitterKeySeparation(t *testing.T) {
	same := 0
	for seq := uint64(0); seq < 100; seq++ {
		if JitterFactor(0.2, "worker-a", seq) == JitterFactor(0.2, "worker-b", seq) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("keys collide on %d/100 seqs — factors are not key-separated", same)
	}
}

// TestBackoff pins the delays of both callers' schedules: the service's
// job retries (100ms base, 5s cap) and the coordinator's worker requests
// (50ms base, 2s cap), through doubling, the cap and an overflowed shift.
func TestBackoff(t *testing.T) {
	const job, url = "job-000001", "http://127.0.0.1:8081/v1/screens"
	for _, c := range []struct {
		base, ceiling time.Duration
		key           string
		attempt       int
		want          time.Duration
	}{
		{100 * time.Millisecond, 5 * time.Second, job, 1, 141796875},
		{100 * time.Millisecond, 5 * time.Second, job, 2, 138476562},
		{100 * time.Millisecond, 5 * time.Second, job, 3, 507031250},
		{100 * time.Millisecond, 5 * time.Second, job, 5, 1150000000},
		{100 * time.Millisecond, 5 * time.Second, job, 7, 2841796875},
		{100 * time.Millisecond, 5 * time.Second, job, 64, 6674804687},
		{50 * time.Millisecond, 2 * time.Second, url, 1, 46923828},
		{50 * time.Millisecond, 2 * time.Second, url, 2, 66406250},
		{50 * time.Millisecond, 2 * time.Second, url, 3, 217773437},
		{50 * time.Millisecond, 2 * time.Second, url, 5, 510156250},
		{50 * time.Millisecond, 2 * time.Second, url, 7, 1576171875},
		{50 * time.Millisecond, 2 * time.Second, url, 64, 1875000000},
	} {
		if got := Backoff(c.base, c.ceiling, c.key, c.attempt); got != c.want {
			t.Errorf("Backoff(%v, %v, %q, %d) = %d, want %d", c.base, c.ceiling, c.key, c.attempt, got, c.want)
		}
	}
}
