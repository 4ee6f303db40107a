// Package admission implements overload protection for the screening
// service: the measure-then-adapt philosophy of the paper's warm-up
// Percent factor (Eq. 1) applied one layer up, at service admission.
// Where the scheduler measures device throughput and splits conformations
// accordingly, this package measures attempt latency, queue wait and
// run time and adapts what the service accepts and runs:
//
//   - Limiter: an AIMD adaptive concurrency limiter seeded from the
//     worker count. Attempt latencies at or below the target grow the
//     window additively; latencies above it shrink the window
//     multiplicatively, so a saturated backend sheds concurrency instead
//     of queueing work inside itself.
//   - FairQueue: a priority, weighted-fair queue. Jobs carry a priority
//     class and a client ID; dequeue interleaves clients round-robin
//     within a class and classes by stride scheduling, so one flooding
//     client cannot starve the rest.
//   - Breaker: a circuit breaker over device-pool health. Repeated
//     all-devices-lost failures open it, a cooldown half-opens it, and a
//     single probe job decides between closing and re-opening.
//   - Controller: EWMA estimators of queue wait and run time feeding
//     deadline admission ("can this request's deadline still be met?"),
//     dequeue culling, Retry-After computation and the graceful
//     degradation signal (shrink per-job search effort under pressure).
//
// Every component takes an injectable clock and adapts only on observed
// values fed by the caller, so admission decisions are deterministic
// under test seeds and fake clocks.
package admission

import (
	"sync"
	"time"
)

// Config tunes the admission controller. The zero value of every field
// means its documented default; Workers is the only required field.
type Config struct {
	// Workers seeds the concurrency limiter: its initial and maximum
	// window.
	Workers int
	// TargetLatency is the AIMD target for per-attempt latency; attempts
	// slower than this shrink the concurrency window. 0 disables
	// adaptation (the window stays at Workers).
	TargetLatency time.Duration
	// BreakerThreshold is the consecutive device-loss failures that open
	// the breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is the open -> half-open delay; 0 means 5s.
	BreakerCooldown time.Duration
	// Now is the clock; nil means time.Now. Tests pin it.
	Now func() time.Time
}

const (
	// degradeAt is the queue-fill fraction at or above which new jobs run
	// with degraded effort, and degradeFactor their search-effort
	// multiplier.
	degradeAt     = 0.75
	degradeFactor = 0.5
	// ewmaAlpha smooths the queue-wait and run-time estimators.
	ewmaAlpha = 0.3
	// minRetryAfter floors every computed Retry-After.
	minRetryAfter = time.Second
)

// withDefaults fills zero fields; NewLimiter and NewBreaker default the
// others.
func (c Config) withDefaults() Config {
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// ewma is a single exponentially-weighted moving average. The zero value
// is unobserved: Value returns 0 until the first Observe.
type ewma struct {
	value float64
	seen  bool
}

func (e *ewma) observe(v float64) {
	if !e.seen {
		e.value, e.seen = v, true
		return
	}
	e.value = ewmaAlpha*v + (1-ewmaAlpha)*e.value
}

// Controller composes the limiter, breaker and latency estimators into
// the service's admission policy. All methods are safe for concurrent
// use.
type Controller struct {
	Limiter *Limiter
	Breaker *Breaker

	mu        sync.Mutex
	queueWait ewma // seconds a job waits from submission to worker start
	runTime   ewma // seconds a successful job spends running
}

// NewController builds a controller from cfg.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		Limiter: NewLimiter(LimiterConfig{Initial: cfg.Workers, Target: cfg.TargetLatency}),
		Breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
	}
}

// ObserveQueueWait feeds one job's measured submission -> start wait.
func (c *Controller) ObserveQueueWait(d time.Duration) {
	c.mu.Lock()
	c.queueWait.observe(d.Seconds())
	c.mu.Unlock()
}

// ObserveRun feeds one successful job's measured start -> finish run time.
func (c *Controller) ObserveRun(d time.Duration) {
	c.mu.Lock()
	c.runTime.observe(d.Seconds())
	c.mu.Unlock()
}

// ObserveAttempt feeds one attempt's latency into the AIMD limiter.
func (c *Controller) ObserveAttempt(d time.Duration) { c.Limiter.Observe(d) }

// EstQueueWait is the current queue-wait estimate (0 until observed).
func (c *Controller) EstQueueWait() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.queueWait.value * float64(time.Second))
}

// EstRun is the current run-time estimate (0 until observed).
func (c *Controller) EstRun() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.runTime.value * float64(time.Second))
}

// CanMeetDeadline decides at admission whether a request's deadline is
// achievable given the measured queue wait and run time. When it is not,
// the returned Retry-After suggests when the backlog driving the estimate
// should have cleared. Unobserved estimators admit optimistically: the
// first jobs after boot carry no history to judge them by.
func (c *Controller) CanMeetDeadline(now, deadline time.Time) (ok bool, retryAfter time.Duration) {
	est := c.EstQueueWait() + c.EstRun()
	if !now.Add(est).After(deadline) {
		return true, 0
	}
	return false, c.floorRetry(c.EstQueueWait())
}

// ShouldCull decides at dequeue whether a job's deadline can no longer be
// met even if it starts immediately.
func (c *Controller) ShouldCull(now, deadline time.Time) bool {
	return now.Add(c.EstRun()).After(deadline)
}

// RetryAfterFull computes the Retry-After for a queue-full rejection: the
// estimated time for the pool to drain one slot (run-time estimate divided
// by the current concurrency window), floored at one second.
func (c *Controller) RetryAfterFull() time.Duration {
	limit := c.Limiter.Limit()
	if limit < 1 {
		limit = 1
	}
	return c.floorRetry(c.EstRun() / time.Duration(limit))
}

// RetryAfterBreaker computes the Retry-After for a breaker-open
// rejection: the time until the circuit half-opens, floored at one
// second.
func (c *Controller) RetryAfterBreaker() time.Duration {
	return c.floorRetry(c.Breaker.RetryAfter())
}

func (c *Controller) floorRetry(d time.Duration) time.Duration {
	if d < minRetryAfter {
		return minRetryAfter
	}
	return d
}

// EffortFactor returns the search-effort multiplier for a job starting
// while the queue is fill full (fill in [0,1]): 1 under normal load, the
// degradation factor at or above the pressure threshold.
func (c *Controller) EffortFactor(fill float64) float64 {
	if fill < degradeAt {
		return 1
	}
	return degradeFactor
}

// Close releases every goroutine blocked in the limiter.
func (c *Controller) Close() { c.Limiter.Close() }

// Snapshot is the observable admission state for /debug/snapshot and the
// metrics gauges.
type Snapshot struct {
	// Limit and InFlight are the limiter's current window and occupancy.
	Limit    int `json:"limit"`
	InFlight int `json:"in_flight"`
	// Breaker is the circuit state: "closed", "half-open" or "open".
	Breaker string `json:"breaker"`
	// QueueWaitSeconds and RunSeconds are the EWMA estimates feeding
	// deadline admission.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RunSeconds       float64 `json:"run_seconds"`
}

// Snapshot captures the current admission state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	qw, rt := c.queueWait.value, c.runTime.value
	c.mu.Unlock()
	return Snapshot{
		Limit:            c.Limiter.Limit(),
		InFlight:         c.Limiter.InFlight(),
		Breaker:          c.Breaker.State().String(),
		QueueWaitSeconds: qw,
		RunSeconds:       rt,
	}
}
