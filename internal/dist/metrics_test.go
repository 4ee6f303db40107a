package dist

import (
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/metrics"
	"github.com/metascreen/metascreen/internal/metrics/metricstest"
)

// TestDistMetricsExpositionGolden pins the runner's families byte for
// byte, which a coordinator's /metrics appends to the node's. The want
// string was recorded from the hand-rolled dist.Metrics.WriteTo this
// registry replaced, for the same event sequence, less the job and
// journal families that are now the node's; it includes a counter past
// 2 000 000 (must stay digits — the drill scripts and straggler tests
// Atoi it).
func TestDistMetricsExpositionGolden(t *testing.T) {
	reg := metrics.New()
	m := NewMetrics(reg)
	m.workers.Set(3)
	m.workersAlive.Set(2)
	m.workersJoined.Add(3)
	m.workerDeaths.Inc()
	m.shards.Add(5)
	m.reshards.Inc()
	m.merged.Add(2_000_000)
	m.merged.Add(345)
	m.pollErrors.Add(2)
	m.retries.Inc()
	m.staleRejected.Inc()
	m.shardsFenced.Inc()
	m.hedgesIssued.Add(2)
	m.hedgeWins.Inc()

	var b strings.Builder
	if err := reg.WriteTo(&b, nil); err != nil {
		t.Fatal(err)
	}
	want := `# HELP metascreen_dist_workers Worker nodes ever registered.
# TYPE metascreen_dist_workers gauge
metascreen_dist_workers 3
# HELP metascreen_dist_workers_alive Worker nodes currently heartbeating.
# TYPE metascreen_dist_workers_alive gauge
metascreen_dist_workers_alive 2
# HELP metascreen_dist_worker_joins_total Worker registrations (first joins and revivals).
# TYPE metascreen_dist_worker_joins_total counter
metascreen_dist_worker_joins_total 3
# HELP metascreen_dist_worker_deaths_total Workers declared dead (heartbeat timeout or request failures).
# TYPE metascreen_dist_worker_deaths_total counter
metascreen_dist_worker_deaths_total 1
# HELP metascreen_dist_shards_total Ligand shards assigned to workers, re-splits included.
# TYPE metascreen_dist_shards_total counter
metascreen_dist_shards_total 5
# HELP metascreen_dist_reshards_total Re-split events after a worker loss.
# TYPE metascreen_dist_reshards_total counter
metascreen_dist_reshards_total 1
# HELP metascreen_dist_ligands_merged_total Per-ligand results merged from worker partials.
# TYPE metascreen_dist_ligands_merged_total counter
metascreen_dist_ligands_merged_total 2000345
# HELP metascreen_dist_poll_errors_total Failed worker dispatch/poll requests.
# TYPE metascreen_dist_poll_errors_total counter
metascreen_dist_poll_errors_total 2
# HELP metascreen_dist_request_retries_total Worker requests retried after a transient failure.
# TYPE metascreen_dist_request_retries_total counter
metascreen_dist_request_retries_total 1
# HELP metascreen_dist_stale_partials_rejected_total Worker partials dropped by the epoch fence.
# TYPE metascreen_dist_stale_partials_rejected_total counter
metascreen_dist_stale_partials_rejected_total 1
# HELP metascreen_dist_shards_fenced_total Shards re-split because their worker revived under a newer epoch.
# TYPE metascreen_dist_shards_fenced_total counter
metascreen_dist_shards_fenced_total 1
# HELP metascreen_dist_hedges_issued_total Duplicate dispatches raced against tail shards.
# TYPE metascreen_dist_hedges_issued_total counter
metascreen_dist_hedges_issued_total 2
# HELP metascreen_dist_hedge_wins_total Hedge twins that finished before their primary.
# TYPE metascreen_dist_hedge_wins_total counter
metascreen_dist_hedge_wins_total 1
`
	got := b.String()
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := metricstest.Lint(got); err != nil {
		t.Error(err)
	}
}
