package admission

import (
	"testing"
	"time"
)

func TestControllerDeadlineAdmission(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Workers: 2, Now: clk.now})

	// Unobserved estimators admit optimistically.
	if ok, _ := c.CanMeetDeadline(clk.now(), clk.now().Add(time.Millisecond)); !ok {
		t.Fatal("unobserved controller should admit")
	}

	c.ObserveQueueWait(4 * time.Second)
	c.ObserveRun(2 * time.Second)
	// est = 6s: an 8s deadline is feasible, a 3s one is not.
	if ok, _ := c.CanMeetDeadline(clk.now(), clk.now().Add(8*time.Second)); !ok {
		t.Fatal("8s deadline should be admitted with 6s estimate")
	}
	ok, retry := c.CanMeetDeadline(clk.now(), clk.now().Add(3*time.Second))
	if ok {
		t.Fatal("3s deadline should be rejected with 6s estimate")
	}
	if retry != 4*time.Second {
		t.Fatalf("Retry-After = %v, want 4s (queue-wait estimate)", retry)
	}

	// Dequeue cull: run estimate 2s, deadline 1s away -> cull.
	if !c.ShouldCull(clk.now(), clk.now().Add(time.Second)) {
		t.Fatal("ShouldCull should fire when run estimate exceeds remaining deadline")
	}
	if c.ShouldCull(clk.now(), clk.now().Add(3*time.Second)) {
		t.Fatal("ShouldCull should pass when deadline is achievable")
	}
}

func TestControllerEWMADeterministic(t *testing.T) {
	c := NewController(Config{Workers: 1})
	c.ObserveRun(4 * time.Second)
	c.ObserveRun(2 * time.Second) // 0.3*2 + 0.7*4 = 3.4
	if got := c.EstRun(); got != 3400*time.Millisecond {
		t.Fatalf("EstRun() = %v, want 3.4s", got)
	}
}

func TestControllerRetryAfterFull(t *testing.T) {
	c := NewController(Config{Workers: 4})
	// No history: floored at one second.
	if got := c.RetryAfterFull(); got != time.Second {
		t.Fatalf("RetryAfterFull() unobserved = %v, want 1s", got)
	}
	c.ObserveRun(20 * time.Second)
	// 20s run / window 4 = 5s until a slot should free up.
	if got := c.RetryAfterFull(); got != 5*time.Second {
		t.Fatalf("RetryAfterFull() = %v, want 5s", got)
	}
}

func TestControllerEffortFactor(t *testing.T) {
	c := NewController(Config{Workers: 1})
	if got := c.EffortFactor(0.5); got != 1 {
		t.Fatalf("EffortFactor(0.5) = %v, want 1", got)
	}
	if got := c.EffortFactor(0.75); got != 0.5 {
		t.Fatalf("EffortFactor(0.75) = %v, want 0.5", got)
	}
}

func TestControllerSnapshot(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Workers: 3, Now: clk.now})
	c.ObserveQueueWait(2 * time.Second)
	c.ObserveRun(time.Second)
	s := c.Snapshot()
	if s.Limit != 3 || s.InFlight != 0 || s.Breaker != "closed" {
		t.Fatalf("Snapshot = %+v", s)
	}
	if s.QueueWaitSeconds != 2 || s.RunSeconds != 1 {
		t.Fatalf("Snapshot estimates = %v/%v, want 2/1", s.QueueWaitSeconds, s.RunSeconds)
	}
}
