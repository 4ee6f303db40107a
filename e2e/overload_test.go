package e2e

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The overload-protection walk, black-box against the real binary: a
// 200-job burst from one flooding client against 2 workers and a
// 32-deep queue, a steady second client that must not starve behind it,
// deadline-aware shedding, and the device-health circuit breaker opening
// on simulated all-device failures and recovering after its cooldown —
// all observed purely through the published HTTP surfaces (/v1/screens,
// /healthz, /metrics, /debug/snapshot).

// overloadRequest adds the overload-protection request fields to the
// wire format (the base screenRequest predates them).
type overloadRequest struct {
	screenRequest
	Priority        string  `json:"priority,omitempty"`
	ClientID        string  `json:"client_id,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	Faults          string  `json:"faults,omitempty"`
}

// shedBody is the structured overload-rejection payload.
type shedBody struct {
	Error             string `json:"error"`
	Reason            string `json:"reason"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
	QueueDepth        int    `json:"queue_depth"`
	Limit             int    `json:"limit"`
}

// statsView is the /healthz payload subset the assertions need.
type statsView struct {
	QueueDepth int    `json:"queue_depth"`
	Breaker    string `json:"breaker"`
	Limit      int    `json:"limit"`
}

// postScreen submits one request and returns the response status, the
// decoded job view (on 2xx) and the decoded shed body (on 4xx/5xx).
func postScreen(t *testing.T, apiURL string, req overloadRequest) (int, jobView, shedBody, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(apiURL+"/v1/screens", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var view jobView
	var shed shedBody
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("submit: decode view: %v", err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
			t.Fatalf("submit: decode shed body (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, view, shed, resp.Header
}

// pollTerminal polls a job to a terminal state and returns its final view.
func pollTerminal(t *testing.T, apiURL, id string, within time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(within)
	var view jobView
	for {
		getJSON(t, apiURL+"/v1/screens/"+id, &view)
		switch view.State {
		case "done", "failed", "cancelled", "shed":
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", id, view.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// metricValue extracts one un-labeled (or exactly-labeled) series value
// from a Prometheus text exposition.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series+" ")), 64)
			if err != nil {
				t.Fatalf("series %q has unparsable value in %q: %v", series, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition", series)
	return 0
}

func TestOverloadProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches a real server binary")
	}
	bin := buildServer(t)
	apiURL, debugURL := startServer(t, bin,
		"-drain-timeout", teardownDrain,
		"-queue", "32",
		"-breaker-threshold", "2",
		"-breaker-cooldown", "2s",
	)

	// ---- Phase 1: the flood. 200 concurrent low-priority submissions
	// from one client against 2 workers and 32 queue slots. Real (not
	// modeled) host screens so the backlog drains slowly enough to observe.
	floodReq := overloadRequest{
		screenRequest: screenRequest{
			Dataset: "2BSM", Library: 10, Spots: 4,
			Metaheuristic: "M1", Scale: 0.2,
		},
		Priority: "low",
		ClientID: "flood",
	}
	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		acceptedIDs   []string
		rejected      atomic.Int64
		badRejections atomic.Int64
	)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := floodReq
			req.Seed = uint64(i + 1)
			body, _ := json.Marshal(req)
			resp, err := http.Post(apiURL+"/v1/screens", "application/json", strings.NewReader(string(body)))
			if err != nil {
				badRejections.Add(1)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				var view jobView
				if json.NewDecoder(resp.Body).Decode(&view) == nil && view.ID != "" {
					mu.Lock()
					acceptedIDs = append(acceptedIDs, view.ID)
					mu.Unlock()
				}
				return
			}
			// Every rejection must be a structured, retryable 429.
			rejected.Add(1)
			var shed shedBody
			if resp.StatusCode != http.StatusTooManyRequests ||
				resp.Header.Get("Retry-After") == "" ||
				json.NewDecoder(resp.Body).Decode(&shed) != nil ||
				shed.Reason != "queue_full" || shed.Limit != 32 || shed.RetryAfterSeconds < 1 {
				badRejections.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if badRejections.Load() != 0 {
		t.Fatalf("%d rejections were malformed (want 429 + Retry-After + structured body)", badRejections.Load())
	}
	if rejected.Load() == 0 {
		t.Fatal("200-job burst against a 32-slot queue produced no 429s")
	}
	t.Logf("burst: %d accepted, %d shed with structured 429s", len(acceptedIDs), rejected.Load())

	// ---- Phase 2: the steady client must not starve behind the flood.
	// Its high-priority modeled job is submitted while the flood backlog
	// is deep and must complete while flood jobs are still queued.
	var st statsView
	getJSON(t, apiURL+"/healthz", &st)
	if st.QueueDepth < 10 {
		t.Fatalf("flood backlog already drained (depth %d); cannot observe fairness", st.QueueDepth)
	}
	steady := overloadRequest{
		screenRequest: screenRequest{
			Dataset: "2BSM", Library: 2, Spots: 1,
			Metaheuristic: "M1", Scale: 0.02, Modeled: true, Seed: 999,
		},
		Priority: "high",
		ClientID: "steady",
	}
	var steadyID string
	submitDeadline := time.Now().Add(30 * time.Second)
	for steadyID == "" {
		code, view, _, _ := postScreen(t, apiURL, steady)
		switch code {
		case http.StatusAccepted:
			steadyID = view.ID
		case http.StatusTooManyRequests:
			if time.Now().After(submitDeadline) {
				t.Fatal("steady client could never get a job admitted")
			}
			time.Sleep(100 * time.Millisecond)
		default:
			t.Fatalf("steady submit status %d", code)
		}
	}
	steadyView := pollTerminal(t, apiURL, steadyID, 30*time.Second)
	if steadyView.State != "done" {
		t.Fatalf("steady job finished as %s (%s)", steadyView.State, steadyView.Error)
	}
	getJSON(t, apiURL+"/healthz", &st)
	if st.QueueDepth == 0 {
		t.Error("steady job only completed after the whole flood drained (starvation not disproven)")
	} else {
		t.Logf("steady client finished with %d flood jobs still queued", st.QueueDepth)
	}

	// ---- Phase 3: deadline-aware shedding. With run-time and queue-wait
	// estimates trained by the flood, a 1ms deadline is unmeetable and is
	// rejected at admission with its own reason.
	impatient := steady
	impatient.ClientID = "impatient"
	impatient.Seed = 1000
	impatient.DeadlineSeconds = 0.001
	code, _, shed, hdr := postScreen(t, apiURL, impatient)
	if code != http.StatusTooManyRequests || shed.Reason != "deadline_admission" {
		t.Fatalf("1ms-deadline submit: status %d reason %q, want 429 deadline_admission", code, shed.Reason)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("deadline rejection missing Retry-After")
	}

	// ---- Phase 4: every accepted flood job reaches a terminal state.
	for _, id := range acceptedIDs {
		v := pollTerminal(t, apiURL, id, 90*time.Second)
		if v.State != "done" {
			t.Errorf("flood job %s finished as %s (%s)", id, v.State, v.Error)
		}
	}

	// ---- Phase 5: the circuit breaker. Two machine jobs whose injected
	// faults kill both Hertz devices open the circuit; open rejects machine
	// jobs with 503; after the 2s cooldown a healthy probe closes it again.
	broken := overloadRequest{
		screenRequest: screenRequest{
			Dataset: "2BSM", Library: 4, Spots: 2,
			Metaheuristic: "M1", Scale: 0.02,
			Machine: "Hertz", Mode: "heterogeneous", Modeled: true,
		},
		ClientID: "chaos",
		Faults:   "dev0:fail@0.0001,dev1:fail@0.0001",
	}
	for i := uint64(1); i <= 2; i++ {
		req := broken
		req.Seed = 2000 + i
		code, view, _, _ := postScreen(t, apiURL, req)
		if code != http.StatusAccepted {
			t.Fatalf("faulted machine submit %d: status %d", i, code)
		}
		v := pollTerminal(t, apiURL, view.ID, 30*time.Second)
		if v.State != "failed" {
			t.Fatalf("faulted machine job %d finished as %s, want failed", i, v.State)
		}
	}
	exposition := getText(t, apiURL+"/metrics")
	if got := metricValue(t, exposition, "metascreen_breaker_state"); got != 2 {
		t.Fatalf("breaker_state %g after two all-device losses, want 2 (open)", got)
	}
	probeReq := broken
	probeReq.Faults = ""
	probeReq.Seed = 3000
	code, _, shed, hdr = postScreen(t, apiURL, probeReq)
	if code != http.StatusServiceUnavailable || shed.Reason != "breaker_open" {
		t.Fatalf("machine submit while open: status %d reason %q, want 503 breaker_open", code, shed.Reason)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("breaker rejection missing Retry-After")
	}
	// Host jobs keep flowing while the breaker is open.
	hostReq := steady
	hostReq.Seed = 3001
	hostReq.ClientID = "chaos"
	if code, view, _, _ := postScreen(t, apiURL, hostReq); code != http.StatusAccepted {
		t.Fatalf("host submit while breaker open: status %d", code)
	} else {
		pollTerminal(t, apiURL, view.ID, 30*time.Second)
	}

	time.Sleep(2500 * time.Millisecond) // past -breaker-cooldown
	probeReq.Seed = 3002
	code, probeView, _, _ := postScreen(t, apiURL, probeReq)
	if code != http.StatusAccepted {
		t.Fatalf("probe submit after cooldown: status %d", code)
	}
	if v := pollTerminal(t, apiURL, probeView.ID, 30*time.Second); v.State != "done" {
		t.Fatalf("probe finished as %s (%s)", v.State, v.Error)
	}
	exposition = getText(t, apiURL+"/metrics")
	if got := metricValue(t, exposition, "metascreen_breaker_state"); got != 0 {
		t.Fatalf("breaker_state %g after successful probe, want 0 (closed)", got)
	}

	// ---- Phase 6: the whole story is visible on the published surfaces.
	for _, want := range []string{
		`metascreen_jobs_shed_total{reason="queue_full"}`,
		`metascreen_jobs_shed_total{reason="deadline_admission"}`,
		`metascreen_jobs_shed_total{reason="breaker_open"}`,
		`metascreen_queue_depth_class{class="high"}`,
		`metascreen_job_class_queue_seconds_count{class="low"}`,
		"metascreen_admission_limit",
		"metascreen_admission_inflight",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if metricValue(t, exposition, `metascreen_jobs_shed_total{reason="queue_full"}`) == 0 {
		t.Error("queue_full sheds not counted")
	}
	var snap struct {
		Admission struct {
			Limit   int    `json:"limit"`
			Breaker string `json:"breaker"`
		} `json:"admission"`
		Shed map[string]int64 `json:"shed"`
	}
	getJSON(t, debugURL+"/debug/snapshot", &snap)
	if snap.Admission.Limit < 1 || snap.Admission.Breaker != "closed" {
		t.Errorf("debug snapshot admission %+v", snap.Admission)
	}
	if snap.Shed["queue_full"] == 0 {
		t.Errorf("debug snapshot shed %v missing queue_full", snap.Shed)
	}
}
