package service

import (
	"errors"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
)

// Admission and lookup errors; SubmitStatus maps them to HTTP statuses.
var (
	// ErrQueueFull is returned when admission would exceed the queue
	// bound. Backpressure is the contract: the service never buffers an
	// unbounded backlog in memory; callers retry with backoff.
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining is returned for submissions after shutdown began.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound is returned for an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrTerminal is returned when cancelling a job that already
	// finished.
	ErrTerminal = errors.New("service: job already finished")
	// ErrDeadlineUnmeetable is returned when the measured queue wait and
	// run time say the request's deadline cannot be met.
	ErrDeadlineUnmeetable = errors.New("service: deadline cannot be met under current load")
	// ErrBreakerOpen is returned while the device-health circuit breaker
	// is rejecting machine jobs.
	ErrBreakerOpen = errors.New("service: device pool circuit breaker open")
	// ErrStorageFull is returned while the service is in storage-degraded
	// read-only mode (full or failing journal disk): submissions would be
	// acknowledged without being journaled. Handlers map it to HTTP 507
	// with a Retry-After; reads keep serving.
	ErrStorageFull = errors.New("service: journal storage full or failing, not accepting jobs")
)

// ShedError wraps an overload rejection with what the client needs to
// back off intelligently: the reason label (matching the
// metascreen_jobs_shed_total metric), a computed Retry-After, and the
// queue state at rejection time. errors.Is still matches the wrapped
// sentinel.
type ShedError struct {
	Err        error
	Reason     string
	RetryAfter time.Duration
	QueueDepth int
	Limit      int
}

func (e *ShedError) Error() string { return e.Err.Error() }
func (e *ShedError) Unwrap() error { return e.Err }

// jobQueue is the bounded priority/weighted-fair queue between admission
// and the worker pool. Pushes happen under the Service mutex so they never
// race Close; pops block in the workers.
type jobQueue = admission.FairQueue[*Job]

func newJobQueue(depth int) *jobQueue { return admission.NewFairQueue[*Job](depth) }

// tryPush enqueues without blocking under the job's priority class and
// client; a full queue is an admission error.
func tryPush(q *jobQueue, j *Job) error {
	switch err := q.Push(j, j.class, j.req.ClientID); err {
	case admission.ErrFull:
		return ErrQueueFull
	case admission.ErrClosed:
		return ErrDraining
	default:
		return err
	}
}
