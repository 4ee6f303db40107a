// Package dist scales a screening service out across nodes. A coordinator
// is a service.Service whose runner is a chunk pool: screens are admitted,
// journaled, cancelled and served exactly as on one node, while registered
// workers — stock vsserved nodes — pull each running screen's ligands in
// chunks (pool.go), each a Ligands-restricted ScreenRequest over the normal
// HTTP API. Seed lanes are keyed by ligand name, so the merged ranking is
// byte-identical to one node's at equal seeds. Merged ligands become the
// job's checkpoint records, as a node's docked ones do, and membership and
// chunk assignments are the runner's own records (journal.go), so a
// restarted coordinator resumes mid-screen under the same idempotency keys.
package dist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/trace"
)

// Config tunes a coordinator. Zero values mean the documented defaults.
type Config struct {
	// Service is the job model, as on a node. Its Workers bounds how many
	// screens are supervised at once and defaults to the queue bound: a
	// supervised screen costs the coordinator no CPU.
	Service service.Config
	// DataDir and Logger, when set, are Service's; the default logger is
	// slog text to stderr.
	DataDir string
	Logger  *slog.Logger
	// HeartbeatTimeout declares a worker dead after this long without a
	// heartbeat or a successful request, and is how long a chunk runs
	// before the tail rule may back it up; default 5s.
	HeartbeatTimeout time.Duration
	// PollInterval is the longest one chunk poll is held on its worker and
	// an idle supervision loop's cadence; default 100ms. It is no latency
	// floor: a worker answers a held poll the moment its chunk completes.
	PollInterval time.Duration
	// RequestTimeout bounds each HTTP request to a worker; default 15s.
	RequestTimeout time.Duration
	// RequestAttempts is the tries per worker request; transient failures
	// (transport errors, timeouts, 408/429/5xx) are retried with jittered
	// exponential backoff from RetryBaseDelay. Defaults 3 and 50ms.
	RequestAttempts int
	RetryBaseDelay  time.Duration
	// FailThreshold is how many consecutive failed requests to one worker
	// declare it dead, whatever its heartbeat; default 2.
	FailThreshold int
	// Transport carries worker requests (netsim faults in tests and
	// drills); nil is a clone of http.DefaultTransport that keeps
	// maxIdleConnsPerWorker idle connections per worker.
	Transport http.RoundTripper
}

// maxResponseBytes caps a worker response: the largest partial one poll
// can see (MaxRankingLimit entries of at most 512 bytes) plus headroom.
const maxResponseBytes = service.MaxRankingLimit*512 + 64<<10

// maxIdleConnsPerWorker sizes the default transport's idle pool: every
// running chunk pins a connection for its held poll, and the stock two
// idle connections per host would re-dial for most of them.
const maxIdleConnsPerWorker = 64

// validate rejects negative counts and durations before any of them is
// defaulted or journaled; service.New checks Service's the same way.
func (c Config) validate() error {
	if err := errors.Join(
		service.NonNegative("HeartbeatTimeout", c.HeartbeatTimeout),
		service.NonNegative("PollInterval", c.PollInterval),
		service.NonNegative("RequestTimeout", c.RequestTimeout),
		service.NonNegative("RequestAttempts", c.RequestAttempts),
		service.NonNegative("RetryBaseDelay", c.RetryBaseDelay),
		service.NonNegative("FailThreshold", c.FailThreshold),
	); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.DataDir != "" {
		c.Service.DataDir = c.DataDir
	}
	c.Service.Journal = "dist-journal"
	if c.Logger != nil {
		c.Service.Logger = c.Logger
	}
	if c.Service.Logger == nil {
		c.Service.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	c.Service.Workers = cmp.Or(c.Service.Workers, c.Service.QueueDepth, service.DefaultQueueDepth)
	c.HeartbeatTimeout = cmp.Or(c.HeartbeatTimeout, 5*time.Second)
	c.PollInterval = cmp.Or(c.PollInterval, 100*time.Millisecond)
	c.RequestTimeout = cmp.Or(c.RequestTimeout, 15*time.Second)
	c.RequestAttempts = cmp.Or(c.RequestAttempts, 3)
	c.RetryBaseDelay = cmp.Or(c.RetryBaseDelay, 50*time.Millisecond)
	c.FailThreshold = cmp.Or(c.FailThreshold, 2)
	return c
}

// worker is one registered node. Guarded by the service mutex.
type worker struct {
	url      string
	alive    bool
	epoch    uint64 // fencing epoch, bumped on every dead→alive transition
	lastBeat time.Time
	shards   int64 // chunks ever assigned here
	merged   int64 // ligands merged first from this worker's polls
	errs     int   // consecutive failed requests (FailThreshold)
}

// shard is one chunk of a distributed job's ligands, owned by one worker
// (pool.go sizes and hands them out). Guarded by the service mutex.
type shard struct {
	id      string   // "s0", "s1", ... unique within the job, stable across restarts
	worker  string   // owning worker URL
	epoch   uint64   // owner's registration epoch at assignment; immutable after creation
	ligands []string // assigned ligand names
	remote  string   // worker-side job ID; "" until the dispatch is acknowledged
	done    bool     // every assigned ligand merged
	moved   bool     // fenced out: worker died or revived, or backup race lost

	// A backup names the chunk it backs (hedgeOf), which names its twin
	// (hedgedBy): the first to complete wins, the other is fenced.
	hedgeOf  string
	hedgedBy string

	cursor     string // the last accepted poll's position; reset with remote
	dispatched time.Time

	// The poll span in progress: its start on the job recorder's clock and
	// how many polls it covers.
	waitFrom  float64
	waitPolls int
}

// job is the runner's table row for one distributed screen: its chunks,
// and while it runs its pool. Guarded by the service mutex.
type job struct {
	id        string
	req       service.ScreenRequest // as run: normalized, degradation applied
	names     []string              // target ligand names, library order
	atoms     map[string]int        // membership of names, and each one's cost
	merged    map[string]core.LigandRecord
	shards    []*shard
	nextShard int
	pool      []string   // ligands awaiting (re-)assignment, costliest first
	ready     [][]string // the current factoring batch's chunks not yet handed out
	resplits  int
	final     bool            // Run ended it: its records leave the next compaction
	rec       *trace.Recorder // the service's span recorder for the job
	loops     map[string]bool // workers whose supervision loop runs, by URL
}

// Coordinator is a screening service whose service.Runner is itself, the
// chunk pool. The service mutex (h.Lock) guards everything below Service.
type Coordinator struct {
	*service.Service
	cfg     Config
	log     *slog.Logger
	cl      *client
	metrics *Metrics
	h       service.Host

	workers   map[string]*worker
	jobs      map[string]*job
	nextEpoch uint64      // monotonic fencing-epoch counter, journaled
	fenced    []remoteRef // zombie worker-side jobs awaiting best-effort cancel

	reqCtx    context.Context // lifetime of every worker request; ends at Shutdown
	reqCancel context.CancelFunc
	wg        sync.WaitGroup // best-effort cancels in flight
}

// New builds a coordinator: the service replays its journal (when a data
// dir is set) and resumes every screen that was queued or running.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	transport := cfg.Transport
	if transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = maxIdleConnsPerWorker
		transport = t
	}
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.Service.Logger,
		workers: make(map[string]*worker),
		jobs:    make(map[string]*job),
	}
	c.cl = &client{
		hc:        &http.Client{Transport: transport},
		timeout:   cfg.RequestTimeout,
		attempts:  cfg.RequestAttempts,
		backoff:   cfg.RetryBaseDelay,
		respLimit: maxResponseBytes,
		onRetry:   func() { c.metrics.retries.Inc() },
	}
	c.reqCtx, c.reqCancel = context.WithCancel(context.Background())
	sc := cfg.Service
	sc.Runner = c
	svc, err := service.New(sc)
	if err != nil {
		c.reqCancel()
		return nil, err
	}
	c.Service = svc
	return c, nil
}

// Bind implements service.Runner.
func (c *Coordinator) Bind(h service.Host) {
	c.h = h
	c.metrics = NewMetrics(h.Metrics())
}

// Shutdown interrupts every supervised screen at once (held polls and
// retries included), leaving its worker-side jobs running for the next
// boot over the same data dir to pick up, then drains the service.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.reqCancel()
	err := c.Service.Shutdown(ctx)
	c.wg.Wait()
	c.cl.hc.CloseIdleConnections()
	return err
}

// Run implements service.Runner: it supervises one screen (supervise.go)
// until every ligand merged, then ranks the merged records as a node ranks
// its checkpointed ones. A client cancel, timeout or deadline also cancels
// the worker-side jobs; Shutdown interrupts (ErrInterrupted) and leaves
// them running.
func (c *Coordinator) Run(ctx context.Context, id string, req service.ScreenRequest) (*core.ScreenResult, error) {
	ctx, end := context.WithCancelCause(ctx)
	defer end(nil)
	defer context.AfterFunc(c.reqCtx, func() { end(service.ErrInterrupted) })()
	c.h.Lock()
	j := c.startLocked(id, req, trace.FromContext(ctx))
	c.h.Unlock()
	var loops sync.WaitGroup
	for {
		start, err := c.supervise(j)
		if err != nil {
			end(err)
		}
		for _, url := range start {
			loops.Add(1)
			go func() {
				defer loops.Done()
				c.loop(ctx, end, j, url)
			}()
		}
		if !rng.Sleep(ctx, c.cfg.PollInterval) {
			break
		}
	}
	loops.Wait()

	cause := context.Cause(ctx)
	var lib []*molecule.Molecule
	if errors.Is(cause, errComplete) {
		lib = service.LibraryOf(j.req)
	}
	c.h.Lock()
	defer c.h.Unlock()
	j.final = !errors.Is(cause, service.ErrInterrupted)
	switch {
	case errors.Is(cause, errComplete):
		return core.Aggregate(lib, nil, j.merged), nil
	case j.final:
		c.cancelLater(append(j.remoteRefsLocked(), c.takeFencedLocked()...))
	}
	return nil, cause
}

// startLocked makes job id's table row ready to run req, keeping the
// chunk table a replay rebuilt: ligands on its live chunks stay out of the
// pool. Chunks of a worker whose death was journaled go back to the pool
// in the first supervise. Caller holds the service mutex.
func (c *Coordinator) startLocked(id string, req service.ScreenRequest, rec *trace.Recorder) *job {
	j := newJob(id, req, c.h.CompletedLocked(id), rec)
	if old := c.jobs[id]; old != nil {
		j.shards, j.nextShard = old.shards, old.nextShard
		live := map[string]bool{}
		for _, sh := range j.shards {
			for _, n := range sh.ligands {
				live[n] = live[n] || !sh.moved
			}
		}
		j.pool = slices.DeleteFunc(j.pool, func(n string) bool { return live[n] })
	}
	c.jobs[id] = j
	return j
}

// newJob builds a table row for req with its target ligands in library
// order, all in the pool (carveBatch drops merged ones). merged is the
// service job's completed set; nil starts an empty one.
func newJob(id string, req service.ScreenRequest, merged map[string]core.LigandRecord, rec *trace.Recorder) *job {
	if merged == nil {
		merged = make(map[string]core.LigandRecord)
	}
	if rec == nil {
		rec = &trace.Recorder{}
	}
	j := &job{id: id, req: req, merged: merged, atoms: make(map[string]int), rec: rec, loops: make(map[string]bool)}
	var want map[string]bool
	if len(req.Ligands) > 0 {
		want = make(map[string]bool, len(req.Ligands))
		for _, n := range req.Ligands {
			want[n] = true
		}
	}
	for i := 0; i < req.Library; i++ {
		if n := core.SyntheticName(i); want == nil || want[n] {
			j.names = append(j.names, n)
			j.atoms[n] = core.SyntheticAtoms(i)
		}
	}
	j.returnToPool(j.names)
	return j
}

// mergeLocked hands newly merged ligands to the service, which journals
// them as one checkpoint record; a job the service does not hold (the
// scheduler tests' bare jobs) keeps them itself. Caller holds the mutex.
func (c *Coordinator) mergeLocked(j *job, recs []core.LigandRecord) {
	if !c.h.CheckpointLocked(j.id, recs) {
		for _, r := range recs {
			j.merged[r.Name] = r
		}
	}
}

// Register upserts a worker by URL and counts as a heartbeat. A dead or
// unknown worker becomes alive under a fresh fencing epoch, so a zombie's
// chunks from before fail every later epoch check and its stale results
// never merge. A new epoch is used only once journaled — else a crash
// could hand it out twice — so a join the journal cannot take is refused
// like a submit. Returns the membership size.
func (c *Coordinator) Register(rawURL string) (int, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return 0, fmt.Errorf("dist: worker url %q must be absolute http(s)", rawURL)
	}
	base := u.Scheme + "://" + u.Host
	c.h.Lock()
	defer c.h.Unlock()
	w, ok := c.workers[base]
	if !ok {
		w = &worker{url: base}
		c.workers[base] = w
	}
	if !w.alive {
		// Set before the append: a compaction it triggers must keep it.
		prev := w.epoch
		c.nextEpoch++
		w.alive, w.epoch = true, c.nextEpoch
		if !c.h.ProbeLocked() || !c.h.AppendLocked(event{Type: evWorker, Worker: base, Alive: true, Epoch: w.epoch}) {
			w.alive, w.epoch = false, prev
			c.nextEpoch--
			if !ok {
				delete(c.workers, base)
			}
			return len(c.workers), &service.ShedError{
				Err: service.ErrStorageFull, Reason: "storage_full", RetryAfter: service.StorageRetryAfter,
			}
		}
		c.metrics.workersJoined.Inc()
		c.countMembersLocked()
		c.log.Info("worker joined", "worker", base, "epoch", w.epoch, "members", len(c.workers))
	}
	w.lastBeat = c.h.Now()
	return len(c.workers), nil
}

// countMembersLocked sets the membership gauges. Caller holds the mutex.
func (c *Coordinator) countMembersLocked() {
	alive := 0
	for _, w := range c.workers {
		if w.alive {
			alive++
		}
	}
	c.metrics.workers.Set(int64(len(c.workers)))
	c.metrics.workersAlive.Set(int64(alive))
}

// WorkerView is one membership row on the wire. Merged counts the ligands
// the worker delivered first: a slow worker simply merges fewer.
type WorkerView struct {
	URL                 string  `json:"url"`
	Alive               bool    `json:"alive"`
	Epoch               uint64  `json:"epoch,omitempty"`
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	Shards              int64   `json:"shards,omitempty"`
	Merged              int64   `json:"merged"`
}

// Workers lists membership sorted by URL.
func (c *Coordinator) Workers() []WorkerView {
	c.h.Lock()
	defer c.h.Unlock()
	return c.workersLocked()
}

func (c *Coordinator) workersLocked() []WorkerView {
	now := c.h.Now()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerView{
			URL:                 w.url,
			Alive:               w.alive,
			Epoch:               w.epoch,
			HeartbeatAgeSeconds: now.Sub(w.lastBeat).Seconds(),
			Shards:              w.shards,
			Merged:              w.merged,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].URL < out[b].URL })
	return out
}

// Detail implements service.Runner: a screen's view carries its chunk
// table and re-split count.
func (c *Coordinator) Detail(v *service.JobView) {
	j := c.jobs[v.ID]
	if j == nil {
		return
	}
	merged := c.h.CompletedLocked(v.ID)
	if merged == nil {
		merged = j.merged
	}
	v.Resplits, v.Shards = j.resplits, nil
	for _, sh := range j.shards {
		mv := 0
		for _, n := range sh.ligands {
			if _, ok := merged[n]; ok {
				mv++
			}
		}
		v.Shards = append(v.Shards, service.ShardView{
			ID: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: len(sh.ligands),
			Merged: mv, Remote: sh.remote, Done: sh.done, Moved: sh.moved, HedgeOf: sh.hedgeOf,
		})
	}
}

// Debug implements service.Runner: the snapshot lists membership with
// per-worker merged counts.
func (c *Coordinator) Debug(d *service.DebugSnapshot) { d.Workers = c.workersLocked() }

// Mount implements service.Runner: membership routes.
//
//	POST   /v1/workers   register/heartbeat {"url": ...} -> 200 {"workers": n}
//	                     (507 + Retry-After while the journal cannot take a
//	                     revival)
//	GET    /v1/workers   membership -> 200 [WorkerView]
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			URL string `json:"url"`
		}
		if !service.DecodeJSON(w, r, &body) {
			return
		}
		n, err := c.Register(body.URL)
		if err != nil {
			service.WriteError(w, service.SubmitStatus(err), err)
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]int{"workers": n})
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Workers())
	})
}
