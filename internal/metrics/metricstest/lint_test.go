package metricstest

import (
	"strings"
	"testing"
)

const clean = `# HELP metascreen_jobs_total Jobs.
# TYPE metascreen_jobs_total counter
metascreen_jobs_total{state="done"} 2000000
metascreen_jobs_total{state="failed"} 0
# HELP metascreen_empty_total A vector with no series yet.
# TYPE metascreen_empty_total counter
# HELP metascreen_depth Depth.
# TYPE metascreen_depth gauge
metascreen_depth 3
# HELP metascreen_wait_seconds Wait.
# TYPE metascreen_wait_seconds histogram
metascreen_wait_seconds_bucket{class="high",le="0.5"} 1
metascreen_wait_seconds_bucket{class="high",le="+Inf"} 2
metascreen_wait_seconds_sum{class="high"} 1.25
metascreen_wait_seconds_count{class="high"} 2
metascreen_wait_seconds_bucket{class="low",le="0.5"} 0
metascreen_wait_seconds_bucket{class="low",le="+Inf"} 0
metascreen_wait_seconds_sum{class="low"} 0
metascreen_wait_seconds_count{class="low"} 0
`

// TestLintCatchesEachRule breaks the clean exposition one rule at a time;
// a lint that accepted everything would pass every other test in the repo.
func TestLintCatchesEachRule(t *testing.T) {
	if err := Lint(clean); err != nil {
		t.Fatalf("clean exposition rejected: %v", err)
	}
	for _, c := range []struct{ name, old, new, want string }{
		{"no HELP", "# HELP metascreen_depth Depth.\n", "", "no HELP before it"},
		{"no TYPE", "# TYPE metascreen_depth gauge\n", "", "before the HELP and TYPE"},
		{"HELP twice", "# TYPE metascreen_depth gauge\n", "# HELP metascreen_depth Again.\n# TYPE metascreen_depth gauge\n", "HELP of metascreen_depth repeats"},
		{"TYPE twice", "# TYPE metascreen_depth gauge\n", "# TYPE metascreen_depth gauge\n# TYPE metascreen_depth gauge\n", "TYPE of metascreen_depth repeats"},
		{"TYPE after sample", "metascreen_depth 3\n", "metascreen_depth 3\n# TYPE metascreen_depth gauge\n", "after its first sample"},
		{"HELP without TYPE", "# TYPE metascreen_empty_total counter\n", "", "HELP but no TYPE"},
		{"name prefix", "metascreen_depth", "other_depth", "off-convention"},
		{"name case", "metascreen_depth", "metascreen_Depth", "off-convention"},
		{"counter suffix", "metascreen_jobs_total", "metascreen_jobs", "does not end in _total"},
		{"duplicate series", `{state="failed"} 0`, `{state="done"} 0`, "duplicate series"},
		{"non-numeric", "metascreen_depth 3", "metascreen_depth three", "non-numeric"},
		{"bucket decreases", `class="high",le="+Inf"} 2`, `class="high",le="+Inf"} 0`, "decreases"},
		{"count differs", `_count{class="high"} 2`, `_count{class="high"} 3`, "its last bucket"},
		{"no +Inf", `metascreen_wait_seconds_bucket{class="low",le="+Inf"} 0` + "\n", "", "its last bucket"},
		{"no le", `_bucket{class="low",le="0.5"}`, `_bucket{class="low"}`, "no le label"},
		{"stray comment", "# HELP metascreen_depth Depth.", "# NOTE metascreen_depth Depth.", "malformed comment"},
	} {
		broken := strings.ReplaceAll(clean, c.old, c.new)
		if broken == clean {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if err := Lint(broken); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
