// Package e2e black-box tests the real vsserved binary: it is built with
// the Go toolchain, launched as a separate process with both the API and
// debug listeners up, and driven purely over HTTP — submit, poll,
// rankings, per-job Chrome trace, Prometheus metrics, pprof and the debug
// snapshot. Nothing here imports the program's internal packages (only
// metricstest, the exposition lint, which knows none of its types): if
// the test passes, an operator following the README gets the same
// behaviour.
package e2e

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/metrics/metricstest"
)

// screenRequest mirrors the service's ScreenRequest wire format. Kept
// local on purpose: the e2e test speaks the published JSON contract, not
// the Go types.
type screenRequest struct {
	Dataset       string  `json:"dataset"`
	Library       int     `json:"library"`
	Spots         int     `json:"spots"`
	Metaheuristic string  `json:"metaheuristic"`
	Scale         float64 `json:"scale"`
	Machine       string  `json:"machine"`
	Mode          string  `json:"mode"`
	Modeled       bool    `json:"modeled"`
	Seed          uint64  `json:"seed"`
}

type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Ranking []struct {
			Ligand string  `json:"ligand"`
			Score  float64 `json:"score"`
		} `json:"ranking"`
		SimulatedSeconds float64              `json:"simulated_seconds"`
		WarmupFactors    map[string][]float64 `json:"warmup_factors"`
	} `json:"result"`
}

// chromeEvent is the subset of a Chrome trace event the assertions need.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// buildServer compiles cmd/vsserved once per test binary.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vsserved")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/metascreen/metascreen/cmd/vsserved")
	cmd.Dir = ".." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build vsserved: %v\n%s", err, out)
	}
	return bin
}

// freeAddrs reserves n distinct localhost ports: it binds :0 n times and
// holds every listener until all n ports are picked, so no two addresses
// collide. The tiny race with another process grabbing a port between
// Close and the server's bind is acceptable for CI.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// startServer launches vsserved and waits for /healthz. The process is
// SIGTERM'd and reaped at cleanup; its stderr log is dumped on failure.
// Unless extra sets -drain-timeout, the teardown is a real-process drain
// drill: with the default drain, the SIGTERM'd server must log "drained
// cleanly" and exit 0 on its own.
func startServer(t *testing.T, bin string, extra ...string) (apiURL, debugURL string) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	api, debug := addrs[0], addrs[1]
	logPath := filepath.Join(t.TempDir(), "vsserved.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("create log: %v", err)
	}
	args := append([]string{
		"-addr", api,
		"-debug-addr", debug,
		"-workers", "2",
		"-log-level", "debug",
		"-log-format", "json",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatalf("start vsserved: %v", err)
	}
	drill := !slices.Contains(extra, "-drain-timeout")
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		var waitErr error
		go func() { waitErr = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		logFile.Close()
		if drill {
			b, _ := os.ReadFile(logPath)
			if waitErr != nil || !strings.Contains(string(b), "drained cleanly") {
				t.Errorf("SIGTERM did not drain vsserved cleanly: %v", waitErr)
			}
		}
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("vsserved log:\n%s", b)
			}
		}
	})

	apiURL = "http://" + api
	debugURL = "http://" + debug
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(apiURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return apiURL, debugURL
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("vsserved never became healthy at %s (last err: %v)", apiURL, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// submitAndWait submits a screen and polls it to a terminal state.
func submitAndWait(t *testing.T, apiURL string, req screenRequest) jobView {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(apiURL+"/v1/screens", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view jobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("submit: decode: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, view %+v", resp.StatusCode, view)
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		getJSON(t, apiURL+"/v1/screens/"+view.ID, &view)
		switch view.State {
		case "done", "failed", "cancelled":
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", view.ID, view.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestEndToEnd is the observability walk: one modeled heterogeneous
// screen on the simulated "Hertz" machine, followed end to end from HTTP
// submission to individual simulated device operations via the job's
// Chrome trace, with the metrics and debug surfaces checked on the way.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches a real server binary")
	}
	bin := buildServer(t)
	apiURL, debugURL := startServer(t, bin)

	view := submitAndWait(t, apiURL, screenRequest{
		Dataset:       "2BSM",
		Library:       4,
		Spots:         2,
		Metaheuristic: "M1",
		Scale:         0.02,
		Machine:       "Hertz",
		Mode:          "heterogeneous",
		Modeled:       true,
		Seed:          7,
	})
	if view.State != "done" {
		t.Fatalf("job state = %q (error %q), want done", view.State, view.Error)
	}
	if view.Result == nil || len(view.Result.Ranking) != 4 {
		t.Fatalf("result = %+v, want a 4-ligand ranking", view.Result)
	}
	if view.Result.SimulatedSeconds <= 0 {
		t.Errorf("simulated_seconds = %v, want > 0", view.Result.SimulatedSeconds)
	}
	if len(view.Result.WarmupFactors) == 0 {
		t.Errorf("warmup_factors missing from result view")
	}
	for kind, percent := range view.Result.WarmupFactors {
		// The paper's Percent factors are relative to the slowest device:
		// each in (0, 1], with at least one device at exactly 1.
		max := 0.0
		for _, p := range percent {
			if p <= 0 || p > 1 {
				t.Errorf("warmup factor for %s out of (0,1]: %v", kind, percent)
			}
			if p > max {
				max = p
			}
		}
		if max != 1 {
			t.Errorf("warmup factors for %s have max %v, want 1", kind, max)
		}
	}

	t.Run("Trace", func(t *testing.T) { checkTrace(t, apiURL, view.ID) })
	t.Run("Metrics", func(t *testing.T) { checkMetrics(t, apiURL) })
	t.Run("Debug", func(t *testing.T) { checkDebug(t, debugURL) })
}

// checkTrace downloads the job's trace from both route aliases and
// asserts it is valid Chrome trace format covering all four levels of
// the stack: job, screen/ligand, generation, and device op.
func checkTrace(t *testing.T, apiURL, id string) {
	canonical := getText(t, apiURL+"/v1/screens/"+id+"/trace")
	alias := getText(t, apiURL+"/jobs/"+id+"/trace")
	if canonical != alias {
		t.Errorf("trace route aliases disagree: %d vs %d bytes", len(canonical), len(alias))
	}

	var events []chromeEvent
	if err := json.Unmarshal([]byte(canonical), &events); err != nil {
		t.Fatalf("trace is not a Chrome trace JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}

	cats := map[string]int{}
	procs := map[int]bool{}
	var haveProcessMeta, haveThreadMeta bool
	for _, ev := range events {
		switch ev.Ph {
		case "X", "i":
			cats[ev.Cat]++
			procs[ev.Pid] = true
			if ev.Ph == "X" && ev.Dur <= 0 {
				t.Errorf("complete event %q has non-positive dur %v", ev.Name, ev.Dur)
			}
			if ev.Ts < 0 {
				t.Errorf("event %q has negative ts %v", ev.Name, ev.Ts)
			}
		case "M":
			switch ev.Name {
			case "process_name":
				haveProcessMeta = true
			case "thread_name":
				haveThreadMeta = true
			}
		default:
			t.Errorf("unexpected event phase %q on %q", ev.Ph, ev.Name)
		}
	}
	for _, cat := range []string{"job", "screen", "ligand", "generation", "device"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q spans (got %v)", cat, cats)
		}
	}
	if !procs[1] || !procs[2] {
		t.Errorf("trace should span both clock processes (wall=1, sim=2), got %v", procs)
	}
	if !haveProcessMeta || !haveThreadMeta {
		t.Errorf("trace missing metadata events (process_name=%v thread_name=%v)",
			haveProcessMeta, haveThreadMeta)
	}

	// The job span must carry its correlation ID, tying the HTTP job to
	// everything beneath it.
	var jobSpan *chromeEvent
	for i, ev := range events {
		if ev.Cat == "job" && ev.Args["job"] == id {
			jobSpan = &events[i]
			break
		}
	}
	if jobSpan == nil {
		t.Fatalf("no job span with args.job == %q", id)
	}
}

// checkMetrics asserts the new latency histograms reached the Prometheus
// exposition after the job finished.
func checkMetrics(t *testing.T, apiURL string) {
	metrics := getText(t, apiURL+"/metrics")
	for _, want := range []string{
		"metascreen_job_latency_seconds_bucket{le=",
		"metascreen_job_queue_seconds_count 1",
		"metascreen_job_run_seconds_count 1",
		"metascreen_generation_sim_seconds_sum",
		"metascreen_jobs_finished_total{state=\"done\"} 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if err := metricstest.Lint(metrics); err != nil {
		t.Errorf("node /metrics lint: %v", err)
	}
}

// checkProfiling asserts a -debug-addr listener, of either role, serves
// pprof and expvar.
func checkProfiling(t *testing.T, debugURL string) {
	t.Helper()
	if body := getText(t, debugURL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index does not list profiles")
	}
	var vars map[string]any
	getJSON(t, debugURL+"/debug/vars", &vars)
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars has no memstats")
	}
}

// checkDebug asserts the node's -debug-addr listener serves pprof, expvar
// and the operational snapshot with device utilization and warm-up factors.
func checkDebug(t *testing.T, debugURL string) {
	checkProfiling(t, debugURL)

	var snap struct {
		Stats struct {
			Workers int `json:"workers"`
		} `json:"stats"`
		Jobs          int     `json:"jobs"`
		Goroutines    int     `json:"goroutines"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		DeviceBusy    []struct {
			Track       string  `json:"track"`
			BusySeconds float64 `json:"busy_seconds"`
		} `json:"device_busy"`
		WarmupFactors map[string][]float64 `json:"warmup_factors"`
	}
	getJSON(t, debugURL+"/debug/snapshot", &snap)
	if snap.Jobs != 1 {
		t.Errorf("snapshot jobs = %d, want 1", snap.Jobs)
	}
	if snap.Goroutines <= 0 || snap.UptimeSeconds <= 0 {
		t.Errorf("snapshot vitals missing: goroutines=%d uptime=%v",
			snap.Goroutines, snap.UptimeSeconds)
	}
	if len(snap.DeviceBusy) == 0 {
		t.Errorf("snapshot has no per-device busy time")
	}
	for _, d := range snap.DeviceBusy {
		if d.BusySeconds <= 0 {
			t.Errorf("device track %q busy = %v, want > 0", d.Track, d.BusySeconds)
		}
	}
	if len(snap.WarmupFactors) == 0 {
		t.Errorf("snapshot has no warm-up factors")
	}
}

// TestTraceWhileRunning asserts tracing a live job returns a valid
// (partial) Chrome trace rather than erroring or blocking.
func TestTraceWhileRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches a real server binary")
	}
	bin := buildServer(t)
	apiURL, _ := startServer(t, bin)

	body, _ := json.Marshal(screenRequest{
		Library: 6, Spots: 2, Metaheuristic: "M2", Scale: 0.05,
		Machine: "Hertz", Mode: "dynamic", Modeled: true, Seed: 11,
	})
	resp, err := http.Post(apiURL+"/v1/screens", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view jobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Immediately export the trace; the job is queued or running.
	var events []chromeEvent
	if err := json.Unmarshal([]byte(getText(t, apiURL+"/v1/screens/"+view.ID+"/trace")), &events); err != nil {
		t.Fatalf("live trace is not valid JSON: %v", err)
	}

	// It must still finish cleanly afterwards.
	deadline := time.Now().Add(90 * time.Second)
	for view.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", view.ID, view.State)
		}
		time.Sleep(100 * time.Millisecond)
		getJSON(t, apiURL+"/v1/screens/"+view.ID, &view)
	}
}

// TestTraceNotFound pins the 404 contract for unknown job IDs.
func TestTraceNotFound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches a real server binary")
	}
	bin := buildServer(t)
	apiURL, _ := startServer(t, bin)
	resp, err := http.Get(apiURL + "/v1/screens/job-999999/trace")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var fail map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil || fail["error"] == "" {
		t.Fatalf("404 body should be {\"error\": ...}, got err=%v body=%v", err, fail)
	}
}
