package admission

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time               { return c.t }
func (c *fakeClock) advance(d time.Duration)      { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                    { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func newTestBreaker(c *fakeClock, n int) *Breaker { return NewBreaker(n, 5*time.Second, c.now) }

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 3)

	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("Allow() = false while closed (failure %d)", i)
		}
		b.Failure()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("State() after 2 failures = %v, want closed", got)
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("State() after 3 failures = %v, want open", got)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow() = true while open")
	}
	if ra := b.RetryAfter(); ra != 5*time.Second {
		t.Fatalf("RetryAfter() = %v, want 5s", ra)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 3)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("State() = %v, want closed (success reset the run)", got)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 1)
	b.Failure() // trips immediately at threshold 1

	clk.advance(4 * time.Second)
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow() = true before cooldown elapsed")
	}
	clk.advance(2 * time.Second)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("State() after cooldown = %v, want half-open", got)
	}
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("Allow() after cooldown = (%v,%v), want probe", ok, probe)
	}
	// A second request during the probe is rejected.
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow() = true while probe in flight")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("State() after probe success = %v, want closed", got)
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("Allow() after close = (%v,%v), want plain allow", ok, probe)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 1)
	b.Failure()
	clk.advance(6 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() = (%v,%v), want probe", ok, probe)
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("State() after probe failure = %v, want open", got)
	}
	// Cooldown restarts from the re-trip.
	clk.advance(4 * time.Second)
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow() = true before second cooldown elapsed")
	}
}

func TestBreakerReleaseProbeAllowsNextProbe(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 1)
	b.Failure()
	clk.advance(6 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() = (%v,%v), want probe", ok, probe)
	}
	// Probe owner abandons (job shed/cancelled) without judging health.
	b.ReleaseProbe()
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() after ReleaseProbe = (%v,%v), want new probe", ok, probe)
	}
}
