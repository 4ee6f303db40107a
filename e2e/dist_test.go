package e2e

// Multi-node distributed screening, black box: a coordinator and three
// worker vsserved processes are launched as real binaries and driven
// purely over HTTP. The contract under test is the tentpole one — a
// screen sharded across workers merges to a ranking byte-identical to
// the same screen on a single node, and that stays true when one worker
// is SIGKILLed mid-screen and its ligands are re-split over survivors.

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/metrics/metricstest"
)

// distRankRow carries every ranking field the wire exposes, so the
// byte-identity comparison covers the full row, not a projection.
type distRankRow struct {
	Rank   int     `json:"rank"`
	Ligand string  `json:"ligand"`
	Atoms  int     `json:"atoms"`
	Score  float64 `json:"score"`
	Spot   int     `json:"spot"`
}

type distJobView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	Resplits  int    `json:"resplits"`
	Result    *struct {
		Ranking          []distRankRow `json:"ranking"`
		SimulatedSeconds float64       `json:"simulated_seconds"`
		Evaluations      int64         `json:"evaluations"`
	} `json:"result"`
}

type workerRow struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// teardownDrain is the -drain-timeout of processes whose drain is not under
// test: at cleanup they interrupt running jobs after this long instead of
// finishing screens nobody reads. TestEndToEnd's server keeps the default
// and is the real-process drain drill (see startServer).
const teardownDrain = "1s"

// startProc launches a vsserved with explicit args, waits for /healthz,
// and returns the base URL plus the process handle (so tests can
// SIGKILL it). Cleanup terminates it if still running, with a drain of
// teardownDrain unless args set -drain-timeout.
func startProc(t *testing.T, bin, api string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "vsserved.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("create log: %v", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", api, "-log-format", "json", "-drain-timeout", teardownDrain}, args...)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatalf("start vsserved: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		logFile.Close()
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("vsserved %s log:\n%s", api, b)
			}
		}
	})
	url := "http://" + api
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, herr := http.Get(url + "/healthz")
		if herr == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return url, cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("vsserved at %s never became healthy (last err: %v)", url, herr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// startCluster boots a coordinator plus n workers and waits until the
// coordinator sees all of them alive. Worker processes are returned for
// fault injection.
func startCluster(t *testing.T, bin string, n int, coordAddr string, coordArgs, workerArgs []string) (coordURL string, workers []*exec.Cmd, workerURLs []string) {
	t.Helper()
	coordURL, _ = startProc(t, bin, coordAddr, append([]string{"-role", "coordinator"}, coordArgs...)...)
	for i := 0; i < n; i++ {
		args := append([]string{"-role", "worker", "-coordinator", coordURL, "-heartbeat", "200ms"}, workerArgs...)
		u, cmd := startProc(t, bin, freeAddrs(t, 1)[0], args...)
		workers = append(workers, cmd)
		workerURLs = append(workerURLs, u)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		var rows []workerRow
		getJSON(t, coordURL+"/v1/workers", &rows)
		alive := 0
		for _, r := range rows {
			if r.Alive {
				alive++
			}
		}
		if alive == n {
			return coordURL, workers, workerURLs
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered with the coordinator", alive, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// submitDist submits a screen to a coordinator (or node — same API) and
// returns the accepted view without waiting.
func submitDist(t *testing.T, base string, req screenRequest) distJobView {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/screens", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view distJobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("submit: decode: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, view %+v", resp.StatusCode, view)
	}
	return view
}

// waitDist polls a job until the predicate holds.
func waitDist(t *testing.T, base, id string, timeout time.Duration, pred func(distJobView) bool) distJobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v distJobView
		getJSON(t, base+"/v1/screens/"+id+"?limit=10000", &v)
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: state=%s completed=%d/%d err=%q", id, v.State, v.Completed, v.Total, v.Error)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func terminalDist(v distJobView) bool {
	switch v.State {
	case "done", "failed", "cancelled", "shed":
		return true
	}
	return false
}

func rankingBytes(t *testing.T, rows []distRankRow) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// distScreen is the screen both distributed e2e tests run: real force
// field, large enough that three shards all get work and a mid-screen
// kill has a window to land in (sequential docking per worker).
var distScreen = screenRequest{
	Dataset:       "2BSM",
	Library:       18,
	Spots:         2,
	Metaheuristic: "M3",
	Scale:         0.3,
	Seed:          7,
}

// TestDistributedScreening: 3-worker screen == 1-node screen, byte for
// byte, plus the scale-out surfaces (membership, readyz, dist metrics).
func TestDistributedScreening(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real server binaries")
	}
	bin := buildServer(t)
	addrs := freeAddrs(t, 2)
	coordAddr, coordDebug := addrs[0], addrs[1]
	coordURL, _, workerURLs := startCluster(t, bin, 3, coordAddr,
		[]string{"-worker-timeout", "2s", "-poll-interval", "50ms", "-debug-addr", coordDebug},
		[]string{"-workers", "1", "-screen-workers", "1"})

	// Readiness: every process reports ready before work is routed.
	for _, u := range append([]string{coordURL}, workerURLs...) {
		resp, err := http.Get(u + "/readyz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/readyz: %v (status %v)", u, err, resp)
		}
		resp.Body.Close()
	}

	// Single-node baseline on worker 1 — a worker is a stock node, so it
	// doubles as the reference platform.
	baseline := submitDist(t, workerURLs[0], distScreen)
	ref := waitDist(t, workerURLs[0], baseline.ID, 90*time.Second, terminalDist)
	if ref.State != "done" {
		t.Fatalf("baseline screen ended %s: %s", ref.State, ref.Error)
	}

	v := submitDist(t, coordURL, distScreen)
	final := waitDist(t, coordURL, v.ID, 120*time.Second, terminalDist)
	if final.State != "done" {
		t.Fatalf("distributed screen ended %s: %s", final.State, final.Error)
	}
	if got, want := rankingBytes(t, final.Result.Ranking), rankingBytes(t, ref.Result.Ranking); got != want {
		t.Fatalf("3-node ranking != 1-node ranking:\n got %s\nwant %s", got, want)
	}
	if final.Result.SimulatedSeconds != ref.Result.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != baseline %v", final.Result.SimulatedSeconds, ref.Result.SimulatedSeconds)
	}
	if final.Result.Evaluations != ref.Result.Evaluations {
		t.Errorf("evaluations %d != baseline %d", final.Result.Evaluations, ref.Result.Evaluations)
	}

	metrics := getText(t, coordURL+"/metrics")
	for _, want := range []string{
		"metascreen_dist_workers_alive 3",
		"metascreen_dist_shards_total",
		"metascreen_dist_ligands_merged_total",
		`metascreen_jobs_finished_total{state="done"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
	if err := metricstest.Lint(metrics); err != nil {
		t.Errorf("coordinator /metrics lint: %v", err)
	}

	// -debug-addr works under -role coordinator too: pprof + expvar, and
	// the node's snapshot plus the runner's workers on that listener.
	checkProfiling(t, "http://"+coordDebug)
	var snap struct {
		Workers []workerRow `json:"workers"`
		Jobs    int         `json:"jobs"`
	}
	getJSON(t, "http://"+coordDebug+"/debug/snapshot", &snap)
	alive := 0
	for _, w := range snap.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 3 || len(snap.Workers) != 3 || snap.Jobs != 1 {
		t.Errorf("coordinator debug snapshot: %d alive, %d workers, %d jobs; want 3, 3, 1",
			alive, len(snap.Workers), snap.Jobs)
	}
}

// TestDistributedWorkerLoss: SIGKILL one of three workers mid-screen.
// The survivors absorb its unfinished ligands and the final ranking is
// still byte-identical to the single-node baseline.
func TestDistributedWorkerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real server binaries")
	}
	bin := buildServer(t)
	coordURL, workers, workerURLs := startCluster(t, bin, 3, freeAddrs(t, 1)[0],
		[]string{"-worker-timeout", "1s", "-poll-interval", "50ms"},
		[]string{"-workers", "1", "-screen-workers", "1"})

	baseline := submitDist(t, workerURLs[0], distScreen)
	ref := waitDist(t, workerURLs[0], baseline.ID, 90*time.Second, terminalDist)
	if ref.State != "done" {
		t.Fatalf("baseline screen ended %s: %s", ref.State, ref.Error)
	}

	v := submitDist(t, coordURL, distScreen)
	waitDist(t, coordURL, v.ID, 90*time.Second, func(v distJobView) bool {
		return v.Completed > 0 && v.Completed < v.Total
	})
	// Kill a worker the hard way — no drain, no goodbye.
	if err := workers[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL worker: %v", err)
	}

	final := waitDist(t, coordURL, v.ID, 120*time.Second, terminalDist)
	if final.State != "done" {
		t.Fatalf("screen ended %s after worker kill: %s", final.State, final.Error)
	}
	if got, want := rankingBytes(t, final.Result.Ranking), rankingBytes(t, ref.Result.Ranking); got != want {
		t.Fatalf("post-kill ranking != 1-node ranking:\n got %s\nwant %s", got, want)
	}
	if final.Result.SimulatedSeconds != ref.Result.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != baseline %v", final.Result.SimulatedSeconds, ref.Result.SimulatedSeconds)
	}

	var rows []workerRow
	getJSON(t, coordURL+"/v1/workers", &rows)
	alive := 0
	for _, r := range rows {
		if r.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("%d workers alive after the kill, want 2", alive)
	}
	metrics := getText(t, coordURL+"/metrics")
	if !strings.Contains(metrics, "metascreen_dist_reshards_total") ||
		strings.Contains(metrics, "metascreen_dist_reshards_total 0\n") {
		t.Errorf("reshard counter did not move:\n%s", metrics)
	}
	if err := metricstest.Lint(metrics); err != nil {
		t.Errorf("coordinator /metrics lint after a worker loss: %v", err)
	}
	if final.Resplits < 1 {
		t.Errorf("job view reports %d resplits, want >= 1", final.Resplits)
	}
}
