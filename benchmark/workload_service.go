package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

// smallRequest is job i of service_open and dist_small: one small screen,
// a different seed per job.
func (r *run) smallRequest(i int) service.ScreenRequest {
	req := r.cfg.Sizes.SmallRequest
	req.Seed = r.cfg.Seed + uint64(i)
	return req
}

// node is one running vsserved in node role with its data dir.
type node struct {
	proc    *child
	dataDir string
}

// nodeArgs are the flags of the single-node server under test.
func nodeArgs(dataDir string) []string {
	return []string{"-workers", "2", "-screen-workers", "1", "-data-dir", dataDir, "-fsync", "always", "-queue", "256"}
}

// startNode launches a node, waits for /readyz and runs the warm-up jobs:
// one complete set-up.
func (r *run) startNode(ctx context.Context, hc *apiClient, args func(dataDir string) []string) (*node, error) {
	dir, err := r.h.tempDir("node-*")
	if err != nil {
		return nil, err
	}
	proc, err := r.h.startChild("node", args(dir)...)
	if err != nil {
		return nil, err
	}
	hc.base = proc.url
	if err := waitReady(ctx, hc.hc, proc.url+"/readyz", proc); err != nil {
		return nil, err
	}
	for i := 0; i < r.cfg.Sizes.WarmupJobs; i++ {
		if err := r.warmupJob(ctx, hc, r.smallRequest(1_000_000+i)); err != nil {
			return nil, err
		}
	}
	return &node{proc: proc, dataDir: dir}, nil
}

// warmupJob submits one job and polls it to done.
func (r *run) warmupJob(ctx context.Context, api *apiClient, req service.ScreenRequest) error {
	quiet := api.quiet()
	id, err := quiet.submit(ctx, req, "", 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for {
		v, err := quiet.get(ctx, id, "?limit=1", "", 0)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if v.State.Terminal() {
			if v.State != service.StateDone {
				return fmt.Errorf("warm-up job %s ended %s: %s", id, v.State, v.Error)
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// loadOutcome condenses an open-loop run.
type loadOutcome struct {
	jobs      []*loadJob
	done      []*loadJob
	latencyMs []float64
	lateMs    []float64
	ligandsPS float64
}

// runOpenLoop drives the open loop for the given time and folds the jobs
// into attempted/failed and the latency series.
func (r *run) runOpenLoop(ctx context.Context, api *apiClient, rate, seconds float64, library int, reqFor func(i int) service.ScreenRequest, count bool) loadOutcome {
	n := max(int(rate*seconds+0.5), 1)
	out := loadOutcome{jobs: openLoop(ctx, api, rate, n, reqFor)}
	var first, last time.Time
	failed := n - len(out.jobs)
	for _, j := range out.jobs {
		out.lateMs = append(out.lateMs, j.lateMs())
		if j.err != nil || j.state != service.StateDone {
			failed++
			continue
		}
		out.done = append(out.done, j)
		out.latencyMs = append(out.latencyMs, j.latencyMs())
		if first.IsZero() || j.due.Before(first) {
			first = j.due
		}
		if j.seen.After(last) {
			last = j.seen
		}
	}
	if span := last.Sub(first).Seconds(); span > 0 {
		out.ligandsPS = float64(len(out.done)*library) / span
	}
	if count {
		r.res.Attempted += n
		r.res.Failed += failed
	}
	return out
}

// checkServedRankings requires every finished job to rank the whole library
// and compares sampled jobs entry by entry with the same request screened in
// process. It returns the in-process screens' wall milliseconds.
func (r *run) checkServedRankings(ctx context.Context, api *apiClient, out loadOutcome, reqFor func(i int) service.ScreenRequest) ([]float64, error) {
	library := reqFor(0).Normalized().Library
	short := 0
	for _, j := range out.done {
		if j.total != library {
			short++
		}
	}
	r.check("every_job_ranks_whole_library", short == 0 && len(out.done) > 0, "%d of %d finished jobs have ranking_total != %d", short, len(out.done), library)

	samples := min(r.cfg.Sizes.SampledRankings, len(out.done))
	mismatches := 0
	var refMs []float64
	for s := 0; s < samples; s++ {
		j := out.done[s*len(out.done)/samples]
		v, err := api.quiet().get(ctx, j.id, "", "", 0)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ref, err := referenceScreen(ctx, reqFor(j.index), 1)
		if err != nil {
			return nil, err
		}
		refMs = append(refMs, time.Since(t0).Seconds()*1e3)
		want := entriesOf(ref)
		if v.Result == nil || len(v.Result.Ranking) != len(want) {
			mismatches++
			continue
		}
		for i := range want {
			if got := v.Result.Ranking[i]; got.Rank != want[i].Rank || !sameEntry(got, want[i]) {
				mismatches++
				break
			}
		}
		if s == 0 {
			r.exact("ranking_digest_job"+strconv.Itoa(j.index), digest(v.Result.Ranking))
		}
	}
	r.check("sampled_rankings_equal_in_process", mismatches == 0 && samples > 0, "%d of %d sampled rankings differ from core.ScreenCtx", mismatches, samples)
	return refMs, nil
}

// scrape reads a /metrics page into series -> value.
func scrape(ctx context.Context, api *apiClient) (map[string]float64, error) {
	body, err := api.getBody(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

// histMeanMs is the mean of a Prometheus histogram between two scrapes.
func histMeanMs(before, after map[string]float64, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n * 1e3
}

// runServiceOpen is service_open: small jobs through a real vsserved over
// real HTTP at a fixed arrival rate, where HTTP, JSON, admission and seven
// fsynced journal records per job are a first-order share of latency.
func (r *run) runServiceOpen(ctx context.Context) error {
	sz := r.cfg.Sizes
	api := &apiClient{hc: newLoadClient()}
	defer api.hc.CloseIdleConnections()
	library := sz.SmallRequest.Normalized().Library

	var nd *node
	setupS, err := measureSetup(r.setupRepeats(sz.SetupRepeatsProcs), func() (err error) {
		nd, err = r.startNode(ctx, api, nodeArgs)
		return err
	}, func() { r.stopNode(api, nd) })
	if err != nil {
		return err
	}
	defer func() { r.stopNode(api, nd) }()

	if !r.cfg.Traced {
		out := r.runOpenLoop(ctx, api, sz.ServiceRate, r.cfg.Seconds, library, r.smallRequest, true)
		if _, err := r.checkServedRankings(ctx, api, out, r.smallRequest); err != nil {
			return err
		}
		r.check("server_survived", !nd.proc.died(), "vsserved still running after the load")
		r.timing("gen_late_ms", out.lateMs)
		r.metrics.set(mSetup, setupS)
		r.metrics.set(mLigandsPS, out.ligandsPS)
		r.metrics.set(mLatencyP50, r.timing("job_latency_ms", out.latencyMs).Median)
		return nil
	}

	refP50 := 0.0
	if ref := r.cfg.Reference; ref != nil {
		refP50 = ref.Metrics[mLatencyP50].Value
	} else {
		out := r.runOpenLoop(ctx, api, sz.ServiceRate, r.cfg.Seconds/2, library, r.smallRequest, false)
		refP50 = median(out.latencyMs)
	}

	// The traced run proper: the same load with a span around every round
	// trip, bracketed by two /metrics scrapes.
	before, err := scrape(ctx, api)
	if err != nil {
		return err
	}
	api.rec = r.rec
	out := r.runOpenLoop(ctx, api, sz.ServiceRate, r.cfg.Seconds, library, r.smallRequest, true)
	api.rec = nil
	after, err := scrape(ctx, api)
	if err != nil {
		return err
	}
	refMs, err := r.checkServedRankings(ctx, api, out, r.smallRequest)
	if err != nil {
		return err
	}
	lat := r.timing("job_latency_ms", out.latencyMs)
	sorted := sortedCopy(out.latencyMs)
	r.metrics.set("harness.trace_overhead_pct", (lat.Median-refP50)/refP50*100)
	r.metrics.set("harness.gen_late_ms_p99", quantile(sortedCopy(out.lateMs), 0.99))
	r.timing("gen_late_ms", out.lateMs)
	r.metrics.set("service.latency_p90_ms", quantile(sorted, 0.90))
	r.metrics.set("service.latency_p99_ms", quantile(sorted, 0.99))
	r.metrics.set("service.overhead_ms_p50", lat.Median-median(refMs))
	r.metrics.set("service.queue_wait_ms_mean", histMeanMs(before, after, "metascreen_job_queue_seconds"))
	r.metrics.set("service.run_ms_mean", histMeanMs(before, after, "metascreen_job_run_seconds"))
	shed := 0.0
	for series, v := range after {
		if strings.HasPrefix(series, "metascreen_jobs_shed_total") {
			shed += v - before[series]
		}
	}
	shed += after["metascreen_jobs_rejected_total"] - before["metascreen_jobs_rejected_total"]
	r.metrics.set("service.shed_share", shed/float64(max(len(out.jobs), 1)))

	var submitMs, pollUs []float64
	for _, s := range r.rec.snapshot() {
		switch {
		case s.Layer == "service" && s.Name == "submit":
			submitMs = append(submitMs, s.duration()*1e3)
		case s.Layer == "service" && s.Name == "poll":
			pollUs = append(pollUs, s.duration()*1e6)
		}
	}
	r.metrics.set("service.submit_ms_p50", r.timing("submit_ms", submitMs).Median)
	r.metrics.set("service.poll_get_us_p50", r.timing("poll_get_us", pollUs).Median)

	share, err := r.traceComputeShare(ctx, api, out.done)
	if err != nil {
		return err
	}
	r.metrics.set("service.trace_compute_share", share)

	jobsPerS, failed := closedLoop(ctx, api, sz.ClosedLoopClients, sz.ClosedLoopSeconds, func(i int) service.ScreenRequest {
		return r.smallRequest(2_000_000 + i)
	})
	r.check("closed_loop_no_failures", failed == 0, "%d closed-loop jobs failed", failed)
	r.metrics.set("service.jobs_per_s_max", jobsPerS)
	r.check("server_survived", !nd.proc.died(), "vsserved still running after the load")

	// Stop the server to read its memory high-water mark and replay the
	// journal it left behind.
	r.stopNode(api, nd)
	r.metrics.set("service.peak_rss_mb", nd.proc.peakRSSMB())
	r.metrics.set("harness.build_s", r.h.buildS)
	if err := r.probeJournalReplay(filepath.Join(nd.dataDir, "journal")); err != nil {
		return err
	}
	if err := r.inProcessService(ctx); err != nil {
		return err
	}
	if err := r.probeWAL(); err != nil {
		return err
	}
	r.probeAdmission()
	return r.probeForcefield(core.Dataset2BSM().Receptor, core.SyntheticLibrary(library), sz.SmallRequest.Normalized().Spots)
}

// traceComputeShare asks the server for the traces of up to 20 finished jobs
// and returns the mean share of the job span its ligand spans cover: the
// server's own attribution of latency to compute.
func (r *run) traceComputeShare(ctx context.Context, api *apiClient, done []*loadJob) (float64, error) {
	samples := min(20, len(done))
	var shares []float64
	for s := 0; s < samples; s++ {
		j := done[s*len(done)/samples]
		body, err := api.getBody(ctx, "/v1/screens/"+j.id+"/trace")
		if err != nil {
			return 0, err
		}
		var events []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		}
		if err := json.Unmarshal(body, &events); err != nil {
			return 0, fmt.Errorf("trace of %s: %w", j.id, err)
		}
		var job span
		var ligands []span
		for _, e := range events {
			if e.Ph != "X" || e.Pid != 1 {
				continue
			}
			s := span{Start: e.Ts, End: e.Ts + e.Dur}
			switch {
			case e.Cat == "job" && strings.HasPrefix(e.Name, "job "):
				job = s
			case e.Cat == "ligand":
				ligands = append(ligands, s)
			}
		}
		if job.duration() > 0 {
			shares = append(shares, coverage(ligands, job.Start, job.End)/job.duration())
		}
	}
	return mean(shares), nil
}

// probeJournalReplay opens the journal a stopped server left behind and
// replays it: what boot recovery costs per record.
func (r *run) probeJournalReplay(dir string) error {
	span := r.rec.begin("wal", "open+replay", "", 0)
	defer r.rec.end(span)
	t0 := time.Now()
	j, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	defer j.Close()
	records := 0
	if err := j.Replay(func([]byte) error { records++; return nil }); err != nil {
		return err
	}
	if sec := time.Since(t0).Seconds(); sec > 0 && records > 0 {
		r.metrics.set("wal.replay_records_per_s", float64(records)/sec)
	}
	return nil
}

// inProcessService runs the same service in this process with a timing
// filesystem under its journal and checkpoints, and divides what the
// filesystem saw by the jobs that ran: the durability cost of one job.
func (r *run) inProcessService(ctx context.Context) error {
	span := r.rec.begin("service", "in-process segment", "", 0)
	defer r.rec.end(span)
	dir, err := r.h.tempDir("inproc-*")
	if err != nil {
		return err
	}
	agg := &fsTimes{}
	svc, err := service.New(service.Config{
		Workers: 2, ScreenWorkers: 1, QueueDepth: 256, DataDir: dir, Fsync: wal.SyncAlways,
		FS: &timedFS{FS: fsim.OSFS(), rec: r.rec, agg: agg},
	})
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(sctx)
	}()
	// Boot I/O (opening the journal) is not a job's cost.
	bootSyncs, bootSyncNs, bootBytes := agg.syncs.Load(), agg.syncNs.Load(), agg.writeBytes.Load()

	jobs := r.cfg.Sizes.InProcJobs
	for i := 0; i < jobs; i++ {
		v, err := svc.Submit(r.smallRequest(3_000_000 + i))
		if err != nil {
			return fmt.Errorf("in-process submit: %w", err)
		}
		for {
			got, err := svc.Get(v.ID)
			if err != nil {
				return err
			}
			if got.State.Terminal() {
				if got.State != service.StateDone {
					return fmt.Errorf("in-process job %s ended %s: %s", v.ID, got.State, got.Error)
				}
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	n := float64(jobs)
	r.metrics.set("wal.fsyncs_per_job", float64(agg.syncs.Load()-bootSyncs)/n)
	r.metrics.set("wal.bytes_per_job", float64(agg.writeBytes.Load()-bootBytes)/n)
	r.metrics.set("wal.sync_ms_per_job", float64(agg.syncNs.Load()-bootSyncNs)/1e6/n)
	return nil
}

// stopNode stops a node. A connection the client dialled but never used
// keeps a draining net/http server waiting for five seconds, so the
// client's idle connections go first.
func (r *run) stopNode(api *apiClient, nd *node) {
	api.hc.CloseIdleConnections()
	r.h.stopChildren(nd.proc)
}
