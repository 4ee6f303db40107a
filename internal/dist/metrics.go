package dist

import (
	"github.com/metascreen/metascreen/internal/metrics"
)

// Metrics is the runner's metric set, declared on the service's registry
// after the node's families (jobs and journal included), so a
// coordinator's /metrics is a node's plus these.
type Metrics struct {
	workersJoined, workerDeaths, shards, reshards   *metrics.Int
	shardsFenced, merged, staleRejected, pollErrors *metrics.Int
	retries, hedgesIssued, hedgeWins                *metrics.Int
	workers, workersAlive                           *metrics.Int // gauges
}

// NewMetrics declares the runner's families on r, in exposition order.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
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
	}
}
