package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/dist"
	"github.com/metascreen/metascreen/internal/service"
)

// largePollEvery paces status polls of a dist_large screen. Each poll makes
// the coordinator sort and serialise the merge so far; at the open loop's
// 2 ms that would be load of its own, and a seconds-long screen does not
// need the resolution.
const largePollEvery = 20 * time.Millisecond

// cluster is a coordinator with two workers. The coordinator is a vsserved
// child in the untraced run and lives in this process, behind a recording
// transport, in the traced run; the workers are always children.
type cluster struct {
	url     string
	hc      *http.Client
	coord   *child
	local   *dist.Coordinator
	server  *http.Server
	logFile *os.File
	workers []*child
}

// startCluster is one complete set-up: processes up, /readyz answered,
// both workers registered and alive, warm-up screens done. A cluster that
// fails half way is torn down again.
func (r *run) startCluster(ctx context.Context, api *apiClient, inProcess bool) (*cluster, error) {
	c := &cluster{hc: api.hc}
	if err := r.bringUp(ctx, api, c, inProcess); err != nil {
		r.stopCluster(c)
		return nil, err
	}
	return c, nil
}

func (r *run) bringUp(ctx context.Context, api *apiClient, c *cluster, inProcess bool) error {
	coordDir, err := r.h.tempDir("coord-*")
	if err != nil {
		return err
	}
	if inProcess {
		c.logFile, err = os.OpenFile(filepath.Join(r.h.outDir, "coordinator-inproc.stderr.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		c.local, err = dist.New(dist.Config{
			DataDir:   coordDir,
			Transport: &recordingTransport{inner: http.DefaultTransport.(*http.Transport).Clone(), rec: r.rec},
			Logger:    slog.New(slog.NewTextHandler(c.logFile, &slog.HandlerOptions{Level: slog.LevelWarn})),
		})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.server = &http.Server{Handler: c.local.Handler()}
		go c.server.Serve(l)
		c.url = "http://" + l.Addr().String()
	} else {
		c.coord, err = r.h.startChild("coordinator", "-role", "coordinator", "-data-dir", coordDir)
		if err != nil {
			return err
		}
		c.url = c.coord.url
	}
	// A worker registers with its first heartbeat and retries a refused one
	// only a second later, so the coordinator must be listening before any
	// worker starts.
	if err := waitReady(ctx, api.hc, c.url+"/readyz", c.children()...); err != nil {
		return err
	}
	for w := 0; w < 2; w++ {
		dir, err := r.h.tempDir("worker-*")
		if err != nil {
			return err
		}
		proc, err := r.h.startChild("worker"+strconv.Itoa(w), "-role", "worker", "-coordinator", c.url,
			"-workers", "1", "-screen-workers", "1", "-data-dir", dir, "-fsync", "always", "-queue", "256")
		if err != nil {
			return err
		}
		c.workers = append(c.workers, proc)
	}
	api.base = c.url
	watch := c.children()
	for _, w := range c.workers {
		if err := waitReady(ctx, api.hc, w.url+"/readyz", watch...); err != nil {
			return err
		}
	}
	if err := waitWorkers(ctx, api.hc, c.url, len(c.workers), watch...); err != nil {
		return err
	}
	for i := 0; i < min(r.cfg.Sizes.WarmupJobs, 3); i++ {
		if err := r.warmupJob(ctx, api, r.smallRequest(1_000_000+i)); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) children() []*child {
	out := append([]*child(nil), c.workers...)
	if c.coord != nil {
		out = append(out, c.coord)
	}
	return out
}

// died names the first child that exited on its own, or "".
func (c *cluster) died() string {
	for _, p := range c.children() {
		if p.died() {
			return p.name
		}
	}
	return ""
}

// stop tears the cluster down: workers first, so none heartbeats into a
// closed coordinator.
func (r *run) stopCluster(c *cluster) {
	if c == nil {
		return
	}
	// A connection the client dialled but never used keeps a draining
	// net/http server waiting for five seconds; drop ours first.
	c.hc.CloseIdleConnections()
	r.h.stopChildren(c.workers...)
	r.h.stopChildren(c.coord)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c.server != nil {
		c.server.Shutdown(ctx)
		c.server = nil
	}
	if c.local != nil {
		c.local.Shutdown(ctx)
		c.local = nil
	}
	if c.logFile != nil {
		c.logFile.Close()
		c.logFile = nil
	}
}

// mergedTotal reads the coordinator's merged-ligand counter.
func mergedTotal(ctx context.Context, api *apiClient) (float64, error) {
	m, err := scrape(ctx, api)
	return m["metascreen_dist_ligands_merged_total"], err
}

// screenToDone submits one screen and polls it until terminal, returning
// the final full view and the wall seconds from submit to observed done.
func screenToDone(ctx context.Context, api *apiClient, req service.ScreenRequest, pollEvery time.Duration, job string, parent int) (jobView, float64, error) {
	t0 := time.Now()
	id, err := api.submit(ctx, req, job, parent)
	if err != nil {
		return jobView{}, 0, err
	}
	for {
		v, err := api.get(ctx, id, "?limit=1", job, parent)
		if err != nil {
			return jobView{}, 0, err
		}
		if v.State.Terminal() {
			sec := time.Since(t0).Seconds()
			if v.State != service.StateDone {
				return v, sec, fmt.Errorf("screen %s ended %s: %s", id, v.State, v.Error)
			}
			full, err := api.quiet().get(ctx, id, "?limit="+strconv.Itoa(service.MaxRankingLimit), "", 0)
			return full, sec, err
		}
		select {
		case <-ctx.Done():
			return jobView{}, 0, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// largeUnit is one dist_large screen's outcome.
type largeUnit struct {
	seconds float64
	view    jobView
}

// largeRequest is unit u's screen.
func (r *run) largeRequest(u int) service.ScreenRequest {
	req := r.cfg.Sizes.LargeRequest
	req.Seed = r.cfg.Seed + uint64(u)
	return req
}

// largeLoop repeats whole-library screens through the coordinator until the
// measuring time is used up.
func (r *run) largeLoop(ctx context.Context, api *apiClient, seconds float64) ([]largeUnit, error) {
	var units []largeUnit
	start := time.Now()
	for u := 0; len(units) == 0 || time.Since(start).Seconds() < seconds; u++ {
		job := "screen-" + strconv.Itoa(u)
		span := api.rec.begin("harness", "job", job, 0)
		v, sec, err := screenToDone(ctx, api, r.largeRequest(u), largePollEvery, job, span)
		api.rec.end(span)
		if err != nil {
			return nil, err
		}
		units = append(units, largeUnit{seconds: sec, view: v})
	}
	return units, nil
}

func largeRate(units []largeUnit, library int) float64 {
	rates := make([]float64, len(units))
	for i, u := range units {
		rates[i] = float64(library) / u.seconds
	}
	return median(rates)
}

// checkLargeRanking verifies a dist_large ranking without paying for a
// second full screen: structure over all ligands, and a sample of ligands
// recomputed in process. Seed lanes are keyed by ligand name, so a ligand
// screened alone must score bit for bit as it did inside the cluster.
func (r *run) checkLargeRanking(ctx context.Context, u int, unit largeUnit) error {
	req := r.largeRequest(u).Normalized()
	names := libraryNames(core.SyntheticLibrary(req.Library))
	if unit.view.Result == nil {
		r.check(fmt.Sprintf("screen%d_ranking", u), false, "no result")
		return nil
	}
	entries := unit.view.Result.Ranking
	problem := rankingProblem(entries, names)
	r.check(fmt.Sprintf("screen%d_ranking_complete_sorted_finite", u), problem == "", "%d entries %s", len(entries), problem)
	if problem != "" || u > 0 {
		return nil
	}
	k := min(r.cfg.Sizes.SampledLigands, len(names))
	for i := 0; i < k; i++ {
		req.Ligands = append(req.Ligands, names[i*len(names)/k])
	}
	ref, err := referenceScreen(ctx, req, 2)
	if err != nil {
		return err
	}
	byName := map[string]service.RankEntry{}
	for _, e := range entries {
		byName[e.Ligand] = e
	}
	bad := 0
	for _, want := range entriesOf(ref) {
		if !sameEntry(byName[want.Ligand], want) {
			bad++
		}
	}
	r.check("sampled_ligands_equal_in_process", bad == 0, "%d of %d sampled ligands differ from core.ScreenCtx", bad, k)
	r.exact("ranking_digest_unit0", digest(entries))
	return nil
}

// distLoad is what both dist workloads share: the client, which of the two
// loads to drive, and how many ligands one screen holds.
type distLoad struct {
	r       *run
	api     *apiClient
	small   bool
	library int
}

// distOutcome is one measured stretch of a dist workload.
type distOutcome struct {
	load   loadOutcome // dist_small
	units  []largeUnit // dist_large
	rate   float64     // ligands per second
	p50    float64     // ms
	merged float64     // coordinator's merged-ligand counter delta
}

// screens is how many screens finished.
func (o distOutcome) screens() int { return len(o.units) + len(o.load.done) }

// measure drives the workload's load against the cluster the client points
// at: small screens at a fixed arrival rate, or whole-library screens back
// to back.
func (d *distLoad) measure(ctx context.Context, seconds float64, count bool) (distOutcome, error) {
	var o distOutcome
	before, err := mergedTotal(ctx, d.api)
	if err != nil {
		return o, err
	}
	if d.small {
		o.load = d.r.runOpenLoop(ctx, d.api, d.r.cfg.Sizes.DistSmallRate, seconds, d.library, d.r.smallRequest, count)
		o.rate, o.p50 = o.load.ligandsPS, median(o.load.latencyMs)
	} else {
		if o.units, err = d.r.largeLoop(ctx, d.api, seconds); err != nil {
			return o, err
		}
		var ms []float64
		for _, u := range o.units {
			ms = append(ms, u.seconds*1e3)
		}
		if count {
			d.r.res.Attempted += len(o.units) * d.library
		}
		o.rate, o.p50 = largeRate(o.units, d.library), median(ms)
	}
	after, err := mergedTotal(ctx, d.api)
	o.merged = after - before
	return o, err
}

// verify checks a measured outcome's rankings, and the coordinator's
// merged-ligand count against what was screened.
func (d *distLoad) verify(ctx context.Context, o distOutcome) error {
	r := d.r
	if d.small {
		if _, err := r.checkServedRankings(ctx, d.api, o.load, r.smallRequest); err != nil {
			return err
		}
	}
	for u, unit := range o.units {
		if err := r.checkLargeRanking(ctx, u, unit); err != nil {
			return err
		}
	}
	want := float64(o.screens() * d.library)
	r.check("merged_ligands_equal_library", o.merged == want, "coordinator merged %v ligands, screens held %v", o.merged, want)
	return nil
}

// runDist is dist_small and dist_large: the same two-worker cluster used two
// ways. Small screens at a fixed arrival rate, where latency is dispatch,
// poll and merge rather than compute; and whole-library screens back to
// back, where throughput matters and the poll floor does not.
func (r *run) runDist(ctx context.Context) error {
	sz := r.cfg.Sizes
	d := &distLoad{r: r, api: &apiClient{hc: newLoadClient()}, small: r.cfg.Workload == wlDistSmall}
	defer d.api.hc.CloseIdleConnections()
	d.library = sz.LargeRequest.Normalized().Library
	if d.small {
		d.library = sz.SmallRequest.Normalized().Library
	}
	if r.cfg.Traced {
		return d.runTraced(ctx)
	}

	var cl *cluster
	defer func() { r.stopCluster(cl) }()
	setupS, err := measureSetup(r.setupRepeats(sz.SetupRepeatsProcs), func() (err error) {
		cl, err = r.startCluster(ctx, d.api, false)
		return err
	}, func() { r.stopCluster(cl) })
	if err != nil {
		return err
	}
	o, err := d.measure(ctx, r.cfg.Seconds, true)
	if err != nil {
		return err
	}
	if err := d.verify(ctx, o); err != nil {
		return err
	}
	r.check("cluster_survived", cl.died() == "", "exited on its own: %q", cl.died())
	r.stopCluster(cl)
	r.res.Aux = map[string]float64{"coordinator_peak_rss_mb": cl.coord.peakRSSMB()}
	r.metrics.set(mSetup, setupS)
	r.metrics.set(mLigandsPS, o.rate)
	r.metrics.set(mLatencyP50, o.p50)
	if d.small {
		r.timing("job_latency_ms", o.load.latencyMs)
		r.timing("gen_late_ms", o.load.lateMs)
	}
	return nil
}

// runTraced is the traced run of a dist workload.
func (d *distLoad) runTraced(ctx context.Context) error {
	r, api := d.r, d.api
	// First the shortened untraced reference on an all-children cluster,
	// unless the caller already has the untraced result.
	refRate, refP50, coordRSS := 0.0, 0.0, 0.0
	if ref := r.cfg.Reference; ref != nil {
		refRate, refP50 = ref.Metrics[mLigandsPS].Value, ref.Metrics[mLatencyP50].Value
		coordRSS = ref.Aux["coordinator_peak_rss_mb"]
	} else {
		cl, err := r.startCluster(ctx, api, false)
		if err != nil {
			return err
		}
		o, err := d.measure(ctx, r.cfg.Seconds/2, false)
		r.stopCluster(cl)
		if err != nil {
			return err
		}
		refRate, refP50, coordRSS = o.rate, o.p50, cl.coord.peakRSSMB()
	}

	// Then the same load against a coordinator in this process whose
	// requests to the workers pass through the recording transport.
	cl, err := r.startCluster(ctx, api, true)
	if err != nil {
		return err
	}
	defer func() { r.stopCluster(cl) }()
	warmupSpans := len(r.rec.snapshot())
	api.rec = r.rec
	o, err := d.measure(ctx, r.cfg.Seconds, true)
	api.rec = nil
	if err != nil {
		return err
	}
	if err := d.verify(ctx, o); err != nil {
		return err
	}
	r.check("cluster_survived", cl.died() == "", "exited on its own: %q", cl.died())

	if d.small {
		r.timing("job_latency_ms", o.load.latencyMs)
		r.metrics.set("dist.latency_p90_ms", quantile(sortedCopy(o.load.latencyMs), 0.90))
		r.metrics.set("harness.gen_late_ms_p99", quantile(sortedCopy(o.load.lateMs), 0.99))
		r.metrics.set("harness.trace_overhead_pct", (o.p50-refP50)/refP50*100)
	} else {
		r.metrics.set("harness.trace_overhead_pct", (refRate-o.rate)/refRate*100)
	}
	var pollMs, dispatchMs []float64
	partialBytes := 0.0
	for _, s := range r.rec.snapshot()[warmupSpans:] {
		switch {
		case s.Layer == "dist" && s.Name == "poll":
			partialBytes += float64(s.Bytes)
			pollMs = append(pollMs, s.duration()*1e3)
		case s.Layer == "dist" && s.Name == "dispatch":
			dispatchMs = append(dispatchMs, s.duration()*1e3)
		}
	}
	screens := float64(max(o.screens(), 1))
	r.metrics.set("dist.polls_per_screen", float64(len(pollMs))/screens)
	r.metrics.set("dist.partial_bytes_per_screen", partialBytes/screens)
	r.metrics.set("dist.poll_rtt_ms_p50", r.timing("dist_poll_rtt_ms", pollMs).Median)
	r.metrics.set("dist.dispatch_ms_p50", r.timing("dist_dispatch_ms", dispatchMs).Median)
	r.metrics.set("dist.ligands_merged", o.merged)
	r.metrics.set("dist.coordinator_peak_rss_mb", coordRSS)
	r.metrics.set("harness.build_s", r.h.buildS)

	// One node alone on the same requests: what the coordinator adds to a
	// small screen, and what sharding costs a large one.
	direct := &apiClient{hc: api.hc, base: cl.workers[0].url}
	if d.small {
		var ms []float64
		for i := 0; i < min(20, len(o.load.done)); i++ {
			_, sec, err := screenToDone(ctx, direct, r.smallRequest(o.load.done[i].index), sweepEvery, "", 0)
			if err != nil {
				return err
			}
			ms = append(ms, sec*1e3)
		}
		r.metrics.set("dist.overhead_ms_p50", o.p50-r.timing("one_worker_latency_ms", ms).Median)
	} else {
		r.metrics.set("dist.shard_imbalance", shardImbalance(o.units[0].view))
		// Stop the cluster first: the single node gets the same two compute
		// threads to itself (-workers 1 -screen-workers 2). With four
		// processes on two cores the ratio measures the cluster's overhead,
		// not scaling.
		r.stopCluster(cl)
		nd, err := r.startNode(ctx, direct, func(dataDir string) []string {
			return []string{"-workers", "1", "-screen-workers", "2", "-data-dir", dataDir, "-fsync", "always"}
		})
		if err != nil {
			return err
		}
		defer r.stopNode(direct, nd)
		span := r.rec.begin("harness", "one-node screen", "", 0)
		v, sec, err := screenToDone(ctx, direct, r.largeRequest(0), largePollEvery, "", 0)
		r.rec.end(span)
		if err != nil {
			return err
		}
		r.metrics.set("dist.efficiency_vs_1node", o.rate/(float64(d.library)/sec))
		same := v.Result != nil && o.units[0].view.Result != nil && digest(v.Result.Ranking) == digest(o.units[0].view.Result.Ranking)
		r.check("cluster_ranking_equals_one_node", same, "digests of unit 0's ranking on the cluster and on one node")
	}
	if err := r.probeWAL(); err != nil {
		return err
	}
	r.probeAdmission()
	req := r.cfg.Sizes.LargeRequest.Normalized()
	if d.small {
		req = r.cfg.Sizes.SmallRequest.Normalized()
	}
	return r.probeForcefield(core.Dataset2BSM().Receptor, core.SyntheticLibrary(min(req.Library, 48)), req.Spots)
}

// shardImbalance is the largest live shard relative to the mean, minus one:
// the slowest shard sets a sharded screen's time.
func shardImbalance(v jobView) float64 {
	n, sum, largest := 0, 0, 0
	for _, s := range v.Shards {
		if s.Moved {
			continue
		}
		n++
		sum += s.Ligands
		largest = max(largest, s.Ligands)
	}
	if sum == 0 {
		return 0
	}
	return float64(largest)*float64(n)/float64(sum) - 1
}
