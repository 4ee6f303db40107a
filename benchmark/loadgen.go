package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/service"
)

// The load generator: one process, one scheduler goroutine that sends on a
// fixed schedule whatever the server does (open loop), one poller goroutine
// that sweeps the in-flight jobs, and an HTTP client capped at two
// keep-alive connections per host, one for each.

// sweepEvery is how often the poller looks at every in-flight job; it is
// the resolution of a measured latency.
const sweepEvery = 2 * time.Millisecond

// clock is the time source of the schedule, so a test can drive it.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// newLoadClient returns the generator's HTTP client.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// jobView is the part of a node's or coordinator's job document the
// benchmark reads.
type jobView struct {
	ID     string              `json:"id"`
	State  service.JobState    `json:"state"`
	Error  string              `json:"error"`
	Shards []shardView         `json:"shards"`
	Result *service.ResultView `json:"result"`
}

type shardView struct {
	Ligands int  `json:"ligands"`
	Moved   bool `json:"moved"`
}

// apiClient speaks the /v1/screens API of a node or a coordinator and
// records each round trip as a span under the job's span.
type apiClient struct {
	hc   *http.Client
	base string
	rec  *recorder
}

// quiet is the same client with tracing off, for requests that are not part
// of the measured load.
func (c *apiClient) quiet() *apiClient { return &apiClient{hc: c.hc, base: c.base} }

// submit posts a screen and returns the job's ID. Anything but 202 is a
// failed (or shed) operation.
func (c *apiClient) submit(ctx context.Context, req service.ScreenRequest, job string, parent int) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	span := c.rec.begin("service", "submit", job, parent)
	defer c.rec.end(span)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/screens", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", fmt.Errorf("submit: decode: %w", err)
	}
	return v.ID, nil
}

// get fetches a job; query is "" for the full ranking or "?limit=1" for a
// cheap status poll.
func (c *apiClient) get(ctx context.Context, id, query, job string, parent int) (jobView, error) {
	span := c.rec.begin("service", "poll", job, parent)
	defer c.rec.end(span)
	var v jobView
	err := c.getJSON(ctx, "/v1/screens/"+id+query, &v)
	return v, err
}

func (c *apiClient) getJSON(ctx context.Context, path string, out any) error {
	body, err := c.getBody(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

func (c *apiClient) getBody(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// schedule calls send(i, due) for i in [0, n) with due = start + i*interval,
// never before due and never skipping: when send or the system stalls, later
// calls happen late but keep their original due time, which is what their
// latency is measured from.
func schedule(ctx context.Context, clk clock, start time.Time, interval time.Duration, n int, send func(i int, due time.Time)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		if ctx.Err() != nil {
			return
		}
		send(i, due)
	}
}

// loadJob is one open-loop job's life as the generator saw it.
type loadJob struct {
	index int
	id    string
	due   time.Time
	sent  time.Time // when the scheduler got to it
	seen  time.Time // when a poll first saw it terminal
	state service.JobState
	total int // ranking length the terminal poll reported
	span  int
	err   error
}

// latencyMs is measured from the due time, so a generator or server stall
// counts against every job it delayed.
func (j *loadJob) latencyMs() float64 { return j.seen.Sub(j.due).Seconds() * 1e3 }

// lateMs is how late the generator itself ran for this job.
func (j *loadJob) lateMs() float64 { return j.sent.Sub(j.due).Seconds() * 1e3 }

// openLoop sends n jobs at rate per second and polls each until it is
// terminal. It returns every job, finished or not; a job whose err is set or
// whose state is not done counts as failed.
func openLoop(ctx context.Context, api *apiClient, rate float64, n int, reqFor func(i int) service.ScreenRequest) []*loadJob {
	clk := wallClock{}
	jobs := make([]*loadJob, n)
	var mu sync.Mutex
	var inflight []*loadJob
	scheduled := make(chan struct{})

	go func() {
		defer close(scheduled)
		interval := time.Duration(float64(time.Second) / rate)
		schedule(ctx, clk, clk.Now().Add(10*time.Millisecond), interval, n, func(i int, due time.Time) {
			j := &loadJob{index: i, due: due, sent: clk.Now()}
			name := fmt.Sprintf("job-%d", i)
			j.span = api.rec.beginAt("harness", "job", name, 0, due)
			j.id, j.err = api.submit(ctx, reqFor(i), name, j.span)
			mu.Lock()
			jobs[i] = j
			if j.err == nil {
				inflight = append(inflight, j)
			}
			mu.Unlock()
		})
	}()

	// The poller stops when the schedule is exhausted and nothing is in
	// flight, or when in-flight jobs make no progress for too long.
	lastProgress := clk.Now()
	for {
		clk.Sleep(sweepEvery)
		mu.Lock()
		batch := append([]*loadJob(nil), inflight...)
		mu.Unlock()
		finished := 0
		for _, j := range batch {
			v, err := api.get(ctx, j.id, "?limit=1", fmt.Sprintf("job-%d", j.index), j.span)
			if err != nil {
				j.err = err
				finished++
				continue
			}
			if v.State.Terminal() {
				j.seen, j.state = clk.Now(), v.State
				if v.Result != nil {
					j.total = v.Result.RankingTotal
				}
				if v.State != service.StateDone {
					j.err = fmt.Errorf("job %s ended %s: %s", j.id, v.State, v.Error)
				}
				api.rec.endAt(j.span, j.seen, 0)
				finished++
			}
		}
		if finished > 0 {
			lastProgress = clk.Now()
			mu.Lock()
			// A job leaves the sweep once a poll failed or saw it terminal.
			inflight = slices.DeleteFunc(inflight, func(j *loadJob) bool { return j.err != nil || !j.seen.IsZero() })
			mu.Unlock()
		}
		mu.Lock()
		remaining := len(inflight)
		mu.Unlock()
		select {
		case <-scheduled:
			if remaining == 0 {
				return collect(jobs)
			}
		default:
		}
		if ctx.Err() != nil || clk.Now().Sub(lastProgress) > 60*time.Second {
			<-scheduled
			mu.Lock()
			for _, j := range inflight {
				j.err = fmt.Errorf("job %s still not terminal when the run gave up", j.id)
			}
			mu.Unlock()
			return collect(jobs)
		}
	}
}

// collect drops the slots a cancelled schedule never filled.
func collect(jobs []*loadJob) []*loadJob {
	out := jobs[:0]
	for _, j := range jobs {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}

// closedLoop runs clients that each submit, wait for done and submit again,
// for the given time; it returns completed jobs per second. It is the
// saturating counterpart of openLoop: a slow server receives less load.
func closedLoop(ctx context.Context, api *apiClient, clients int, seconds float64, reqFor func(i int) service.ScreenRequest) (jobsPerS float64, failed int) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	done, next := 0, 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				ok := false
				if id, err := api.submit(ctx, reqFor(i), "", 0); err == nil {
					for ctx.Err() == nil {
						v, err := api.get(ctx, id, "?limit=1", "", 0)
						if err != nil || v.State.Terminal() {
							ok = err == nil && v.State == service.StateDone
							break
						}
						time.Sleep(time.Millisecond)
					}
				}
				mu.Lock()
				if ok {
					done++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), failed
}
