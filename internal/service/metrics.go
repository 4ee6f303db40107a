package service

import (
	"io"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/metrics"
)

// Metrics is the service's metric set: job lifecycle, latency histograms,
// engine work and the durability layer, plus a runner's families after
// them. Call sites use the handles directly; gauges are set from one
// Stats snapshot per scrape. Names, help and order are stable API (the
// benchmark and drills read them) — see the golden test.
type Metrics struct {
	reg *metrics.Registry

	// Job lifecycle and engine work, accumulated as jobs finish.
	submitted, rejected, degraded       *metrics.Int
	finished, shed                      *metrics.Vec[*metrics.Int] // by terminal state; by shedReasons
	latency, queueWait, runTime, genSim *metrics.Histogram
	classQueue                          *metrics.Vec[*metrics.Histogram] // queue wait by priority class
	evaluations, deviceFaults, resplits *metrics.Int
	simulatedSeconds                    *metrics.Float
	jobRetries, workerPanics            *metrics.Int

	// Durability layer.
	journalRecords, journalBytes, journalErrors, journalCompactions, journalSkipped *metrics.Int
	checkpointsWritten, checkpointErrors, storageRecoveries                         *metrics.Int
	replayedRecords, recoveredJobs, truncatedBytes                                  *metrics.Int               // boot-time replay
	walIOErrors                                                                     *metrics.Vec[*metrics.Int] // by op

	// Gauges: busy moves +1/-1 around each job, workers is fixed, the rest
	// are set per scrape from Stats.
	workers, busy, queueDepth, running, storageDegraded, limit, inFlight, breaker *metrics.Int
	queueClass                                                                    *metrics.Vec[*metrics.Int] // by priority class
}

// defaultLatencyBuckets spans interactive modeled screens (tens of
// milliseconds) to long real-mode library runs.
var defaultLatencyBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// defaultGenBuckets spans one metaheuristic generation's simulated time,
// from sub-millisecond modeled generations to long real-scale ones.
var defaultGenBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10, 100}

// shedReasons lists every shed-counter label in exposition order.
var shedReasons = []string{
	"queue_full", "deadline_admission", "deadline_dequeue",
	"deadline_backoff", "breaker_open", "storage_full",
}

// breakerGauge maps a breaker state name to its gauge value; unknown
// names and "closed" are 0.
var breakerGauge = map[string]int64{"half-open": 1, "open": 2}

// NewMetrics declares the node's families, in exposition order, for a
// pool of `workers` workers.
func NewMetrics(workers int) *Metrics {
	r := metrics.New()
	var classes, states []string
	for _, c := range admission.Classes() {
		classes = append(classes, c.String())
	}
	for _, st := range TerminalStates {
		states = append(states, string(st))
	}
	m := &Metrics{
		reg:                r,
		submitted:          r.Counter("metascreen_jobs_submitted_total", "Jobs admitted into the queue."),
		rejected:           r.Counter("metascreen_jobs_rejected_total", "Submissions rejected because the queue was full."),
		finished:           r.CounterVec("metascreen_jobs_finished_total", "Jobs by terminal state.", "state", states...),
		queueDepth:         r.Gauge("metascreen_queue_depth", "Jobs admitted but not yet claimed by a worker."),
		running:            r.Gauge("metascreen_jobs_running", "Jobs currently executing."),
		workers:            r.Gauge("metascreen_workers", "Size of the worker pool."),
		busy:               r.Gauge("metascreen_workers_busy", "Workers currently running a job."),
		latency:            r.Histogram("metascreen_job_latency_seconds", "Job latency from submission to terminal state.", defaultLatencyBuckets),
		queueWait:          r.Histogram("metascreen_job_queue_seconds", "Queue wait from submission to worker start.", defaultLatencyBuckets),
		runTime:            r.Histogram("metascreen_job_run_seconds", "Execution time from worker start to terminal state.", defaultLatencyBuckets),
		genSim:             r.Histogram("metascreen_generation_sim_seconds", "Simulated seconds per metaheuristic generation in finished jobs.", defaultGenBuckets),
		evaluations:        r.Counter("metascreen_evaluations_total", "Scoring-function evaluations performed by finished jobs."),
		simulatedSeconds:   r.FloatCounter("metascreen_simulated_seconds_total", "Modeled engine seconds accumulated by finished jobs."),
		deviceFaults:       r.Counter("metascreen_device_faults_total", "Simulated device fault events absorbed by finished jobs."),
		resplits:           r.Counter("metascreen_resplits_total", "Mid-run work redistributions after device loss in finished jobs."),
		jobRetries:         r.Counter("metascreen_job_retries_total", "Job executions retried after a transient failure."),
		workerPanics:       r.Counter("metascreen_worker_panics_total", "Worker panics recovered while running jobs."),
		journalRecords:     r.Counter("metascreen_journal_records_total", "Job lifecycle records appended to the journal."),
		journalBytes:       r.Counter("metascreen_journal_bytes_total", "Journal record payload bytes appended."),
		journalErrors:      r.Counter("metascreen_journal_errors_total", "Journal append, compaction or replay-decode failures."),
		journalCompactions: r.Counter("metascreen_journal_compactions_total", "Journal compactions into per-job snapshots."),
		checkpointsWritten: r.Counter("metascreen_checkpoints_written_total", "Atomic per-job checkpoint snapshots written."),
		replayedRecords:    r.Counter("metascreen_replayed_records_total", "Journal records applied during boot-time recovery."),
		recoveredJobs:      r.Counter("metascreen_recovered_jobs_total", "Interrupted jobs re-enqueued by boot-time recovery."),
		truncatedBytes:     r.Counter("metascreen_journal_truncated_bytes_total", "Torn-tail journal bytes dropped during recovery."),
		walIOErrors:        r.CounterVec("metascreen_wal_io_errors_total", "Storage I/O failures absorbed or surfaced by the durability layer, by operation.", "op"),
		journalSkipped:     r.Counter("metascreen_journal_skipped_total", "Journal appends skipped while storage-degraded."),
		checkpointErrors:   r.Counter("metascreen_checkpoint_errors_total", "Checkpoint record append failures (screen continued)."),
		storageRecoveries:  r.Counter("metascreen_storage_recoveries_total", "Successful storage recoveries (journaling re-enabled)."),
		storageDegraded:    r.Gauge("metascreen_storage_degraded", "Whether the service is in storage-degraded read-only mode."),
		shed:               r.CounterVec("metascreen_jobs_shed_total", "Overload rejections and culls by reason.", "reason", shedReasons...),
		degraded:           r.Counter("metascreen_jobs_degraded_total", "Jobs run with reduced search effort under pressure."),
		limit:              r.Gauge("metascreen_admission_limit", "Adaptive concurrency limiter window."),
		inFlight:           r.Gauge("metascreen_admission_inflight", "Jobs currently holding a concurrency slot."),
		breaker:            r.Gauge("metascreen_breaker_state", "Device-health circuit state: 0 closed, 1 half-open, 2 open."),
		queueClass:         r.GaugeVec("metascreen_queue_depth_class", "Queued jobs by priority class.", "class", classes...),
		classQueue:         r.HistogramVec("metascreen_job_class_queue_seconds", "Queue wait from submission to worker start, by priority class.", "class", defaultLatencyBuckets, classes...),
	}
	m.workers.Set(int64(workers))
	return m
}

// ShedCounts copies the non-zero shed counters by reason.
func (m *Metrics) ShedCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, r := range shedReasons {
		if n := m.shed.With(r).Value(); n != 0 {
			out[r] = n
		}
	}
	return out
}

// WriteTo writes the Prometheus text exposition, with the gauges set from
// st under the scrape lock so every scrape is one consistent snapshot.
func (m *Metrics) WriteTo(w io.Writer, st Stats) error {
	return m.reg.WriteTo(w, func() {
		m.queueDepth.Set(int64(st.QueueDepth))
		m.running.Set(int64(st.Running))
		m.storageDegraded.Set(0)
		if st.StorageDegraded {
			m.storageDegraded.Set(1)
		}
		m.limit.Set(int64(st.Limit))
		m.inFlight.Set(int64(st.InFlight))
		m.breaker.Set(breakerGauge[st.Breaker])
		for _, c := range admission.Classes() {
			m.queueClass.With(c.String()).Set(int64(st.QueueByClass[c.String()]))
		}
	})
}
