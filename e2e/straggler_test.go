package e2e

// Straggler drill, black box: a 3-worker cluster where one worker is
// both lagged (netsim latency on every coordinator->victim request) and
// genuinely stalled (a soak screen submitted directly to its one-slot
// pool, so the coordinator's chunks queue behind it at zero progress).
// The healthy workers pull the rest of the pool; once it is dry they back
// up the victim's chunks, and the screen finishes within a bounded
// multiple of the healthy-cluster makespan — with a ranking still
// byte-identical to the single-node run and every ligand merged exactly
// once.

import (
	"fmt"
	"testing"
	"time"
)

// snapshotWorker mirrors the worker rows of GET /debug/snapshot.
type snapshotWorker struct {
	URL    string `json:"url"`
	Alive  bool   `json:"alive"`
	Merged int64  `json:"merged"`
}

type snapshotView struct {
	Workers []snapshotWorker `json:"workers"`
}

// stragglerArgs is the coordinator tuning both clusters share, so the
// makespan comparison is apples to apples: only the chaos differs.
var stragglerArgs = []string{
	"-worker-timeout", "2s",
	"-poll-interval", "50ms",
	"-request-timeout", "3s",
}

func TestDistributedStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real server binaries")
	}
	bin := buildServer(t)
	workerArgs := []string{"-workers", "1", "-screen-workers", "1"}

	// Healthy cluster: the single-node reference ranking and the makespan
	// the chaos run is judged against.
	coordURL, _, workerURLs := startCluster(t, bin, 3, freeAddrs(t, 1)[0], stragglerArgs, workerArgs)
	baseline := submitDist(t, workerURLs[0], distScreen)
	ref := waitDist(t, workerURLs[0], baseline.ID, 120*time.Second, terminalDist)
	if ref.State != "done" {
		t.Fatalf("baseline screen ended %s: %s", ref.State, ref.Error)
	}
	healthyStart := time.Now()
	v := submitDist(t, coordURL, distScreen)
	healthy := waitDist(t, coordURL, v.ID, 120*time.Second, terminalDist)
	healthyMakespan := time.Since(healthyStart)
	if healthy.State != "done" {
		t.Fatalf("healthy-cluster screen ended %s: %s", healthy.State, healthy.Error)
	}
	if got, want := rankingBytes(t, healthy.Result.Ranking), rankingBytes(t, ref.Result.Ranking); got != want {
		t.Fatalf("healthy 3-node ranking != 1-node ranking:\n got %s\nwant %s", got, want)
	}

	// Chaos cluster: the victim's address must be known before the
	// coordinator starts so the latency plan can target it.
	addrs := freeAddrs(t, 2)
	victimAddr, coordAddr := addrs[0], addrs[1]
	plan := fmt.Sprintf("%s:latency@500ms±100ms", victimAddr)
	chaosCoord, _ := startProc(t, bin, coordAddr, append([]string{
		"-role", "coordinator", "-chaos", plan, "-chaos-seed", "7",
	}, stragglerArgs...)...)
	victimURL, _ := startProc(t, bin, victimAddr, append([]string{
		"-role", "worker", "-coordinator", chaosCoord, "-heartbeat", "200ms",
	}, workerArgs...)...)
	for i := 0; i < 2; i++ {
		startProc(t, bin, freeAddrs(t, 1)[0], append([]string{
			"-role", "worker", "-coordinator", chaosCoord, "-heartbeat", "200ms",
		}, workerArgs...)...)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		var rows []workerRow
		getJSON(t, chaosCoord+"/v1/workers", &rows)
		alive := 0
		for _, r := range rows {
			if r.Alive {
				alive++
			}
		}
		if alive == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 workers registered with the chaos coordinator", alive)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stall the victim for real: its pool has one slot, so a soak screen
	// submitted directly serializes the coordinator's chunks behind it at
	// zero progress until they are backed up.
	soak := distScreen
	soak.Library = 60
	soak.Scale = 1.0
	soak.Seed = 3
	submitDist(t, victimURL, soak)

	chaosStart := time.Now()
	cv := submitDist(t, chaosCoord, distScreen)
	final := waitDist(t, chaosCoord, cv.ID, 180*time.Second, terminalDist)
	chaosMakespan := time.Since(chaosStart)
	if final.State != "done" {
		t.Fatalf("chaos screen ended %s: %s", final.State, final.Error)
	}

	// Correctness first: byte-identical ranking, every ligand exactly once.
	if got, want := rankingBytes(t, final.Result.Ranking), rankingBytes(t, ref.Result.Ranking); got != want {
		t.Fatalf("post-backup ranking != 1-node ranking:\n got %s\nwant %s", got, want)
	}
	metrics := getText(t, chaosCoord+"/metrics")
	if got := metricValue(t, metrics, "metascreen_dist_ligands_merged_total"); got != float64(distScreen.Library) {
		t.Errorf("ligands_merged_total = %v, want exactly %d", got, distScreen.Library)
	}
	if got := metricValue(t, metrics, "metascreen_dist_hedges_issued_total"); got < 1 {
		t.Errorf("hedges_issued_total = %v, want >= 1 — the stalled chunks were never backed up", got)
	}

	// The mitigation bound: the stalled worker costs at most the healthy
	// makespan again (grace + re-run of its chunks), with an absolute floor
	// so a very fast healthy run doesn't turn the bound into noise.
	limit := 2 * healthyMakespan
	if floor := healthyMakespan + 6*time.Second; limit < floor {
		limit = floor
	}
	t.Logf("makespan: healthy %v, straggler %v, bound %v", healthyMakespan, chaosMakespan, limit)
	if chaosMakespan > limit {
		t.Errorf("chaos makespan %v exceeds %v (healthy %v): straggler not mitigated",
			chaosMakespan, limit, healthyMakespan)
	}

	// The victim is visible in the operator surface: in /debug/snapshot it
	// merged fewer ligands than each healthy worker.
	var snap snapshotView
	getJSON(t, chaosCoord+"/debug/snapshot", &snap)
	victim, healthyRows := int64(-1), 0
	for _, w := range snap.Workers {
		if w.URL == victimURL {
			victim = w.Merged
		}
	}
	if victim < 0 {
		t.Fatalf("victim %s missing from /debug/snapshot workers: %+v", victimURL, snap.Workers)
	}
	for _, w := range snap.Workers {
		if w.URL != victimURL {
			healthyRows++
			if w.Merged <= victim {
				t.Errorf("healthy worker %s merged %d ligands, the victim %d", w.URL, w.Merged, victim)
			}
		}
	}
	if healthyRows != 2 {
		t.Errorf("%d healthy workers in /debug/snapshot, want 2: %+v", healthyRows, snap.Workers)
	}
}
