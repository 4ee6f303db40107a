package dist

import (
	"io"

	"github.com/metascreen/metascreen/internal/metrics"
	"github.com/metascreen/metascreen/internal/service"
)

// Metrics is the coordinator's metric set on an internal/metrics
// registry, exposed on /metrics. Counters are cumulative over the process
// lifetime (they restart from zero with the coordinator); gauges are set
// from one Stats snapshot per scrape by WriteTo. Naming follows the
// service's metascreen_* convention with a dist_ subsystem prefix.
type Metrics struct {
	reg *metrics.Registry

	workersJoined, workerDeaths, shards, reshards   *metrics.Int
	shardsFenced, merged, staleRejected, pollErrors *metrics.Int
	retries, hedgesIssued, hedgeWins, journalErrors *metrics.Int
	submitted                                       *metrics.Int
	finished                                        *metrics.Vec[*metrics.Int] // by terminal state
	workers, workersAlive, running                  *metrics.Int               // gauges, set per scrape from Stats
}

// NewMetrics declares the coordinator's families in exposition order.
func NewMetrics() *Metrics {
	r := metrics.New()
	return &Metrics{
		reg:           r,
		workers:       r.Gauge("metascreen_dist_workers", "Worker nodes ever registered."),
		workersAlive:  r.Gauge("metascreen_dist_workers_alive", "Worker nodes currently heartbeating."),
		workersJoined: r.Counter("metascreen_dist_worker_joins_total", "Worker registrations (first joins and revivals)."),
		workerDeaths:  r.Counter("metascreen_dist_worker_deaths_total", "Workers declared dead (heartbeat timeout or request failures)."),
		shards:        r.Counter("metascreen_dist_shards_total", "Ligand shards assigned to workers, re-splits included."),
		reshards:      r.Counter("metascreen_dist_reshards_total", "Re-split events after a worker loss."),
		merged:        r.Counter("metascreen_dist_ligands_merged_total", "Per-ligand results merged from worker partials."),
		pollErrors:    r.Counter("metascreen_dist_poll_errors_total", "Failed worker dispatch/poll requests."),
		retries:       r.Counter("metascreen_dist_request_retries_total", "Worker requests retried after a transient failure."),
		staleRejected: r.Counter("metascreen_dist_stale_partials_rejected_total", "Worker partials dropped by the epoch fence."),
		shardsFenced:  r.Counter("metascreen_dist_shards_fenced_total", "Shards re-split because their worker revived under a newer epoch."),
		hedgesIssued:  r.Counter("metascreen_dist_hedges_issued_total", "Duplicate dispatches raced against tail shards."),
		hedgeWins:     r.Counter("metascreen_dist_hedge_wins_total", "Hedge twins that finished before their primary."),
		journalErrors: r.Counter("metascreen_dist_journal_errors_total", "Coordinator journal append/compact failures."),
		submitted:     r.Counter("metascreen_dist_jobs_submitted_total", "Distributed screens admitted."),
		finished:      r.CounterVec("metascreen_dist_jobs_finished_total", "Distributed screens by terminal state.", "state", service.TerminalStateNames()...),
		running:       r.Gauge("metascreen_dist_jobs_running", "Distributed screens currently executing."),
	}
}

// WriteTo writes the Prometheus text exposition with the gauges set from
// st, and returns the writer's error.
func (m *Metrics) WriteTo(w io.Writer, st Stats) error {
	return m.reg.WriteTo(w, func() {
		m.workers.Set(int64(st.Workers))
		m.workersAlive.Set(int64(st.WorkersAlive))
		m.running.Set(int64(st.Running))
	})
}
