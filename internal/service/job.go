package service

import (
	"context"
	"fmt"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/tables"
	"github.com/metascreen/metascreen/internal/trace"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Cancelled.
// A queued job cancelled before a worker picks it up goes straight from
// Queued to Cancelled, and a queued job whose deadline becomes unmeetable
// before a worker reaches it goes to Shed.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
	StateShed      JobState = "shed"
)

// Terminal reports whether a job in this state will never change again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateShed
}

// TerminalStates lists every terminal state in exposition order.
var TerminalStates = []JobState{StateDone, StateFailed, StateCancelled, StateShed}

// ScreenRequest describes one screening job: which benchmark receptor,
// how large a synthetic ligand library, which metaheuristic, and which
// (simulated) machine runs it. The zero value of every optional field
// means its documented default.
type ScreenRequest struct {
	// Dataset is the benchmark receptor: "2BSM" (default) or "2BXG".
	Dataset string `json:"dataset,omitempty"`
	// Library is the synthetic ligand library size; default 8.
	Library int `json:"library,omitempty"`
	// Spots is the surface-spot cap per ligand job; default 4.
	Spots int `json:"spots,omitempty"`
	// Metaheuristic is one of the paper's "M1".."M4"; default "M3".
	Metaheuristic string `json:"metaheuristic,omitempty"`
	// Scale is the metaheuristic budget scale (1 = paper scale);
	// default 0.02, small enough for interactive latency.
	Scale float64 `json:"scale,omitempty"`
	// Machine selects a simulated multi-GPU platform ("Jupiter" or
	// "Hertz"); empty runs on the multicore host backend.
	Machine string `json:"machine,omitempty"`
	// Mode is the pool partitioning strategy when Machine is set:
	// "homogeneous" (default), "heterogeneous" or "dynamic".
	Mode string `json:"mode,omitempty"`
	// Modeled selects the surrogate scorer (the table harness's Modeled
	// mode) instead of real force-field evaluation.
	Modeled bool `json:"modeled,omitempty"`
	// Seed is the screen's random seed; jobs with equal requests and
	// seeds return identical rankings.
	Seed uint64 `json:"seed"`
	// TimeoutSeconds bounds the job's wall-clock run time; 0 = no limit.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Priority is the job's admission class: "high", "normal" (default)
	// or "low". Dequeue is weighted-fair across classes (4:2:1) and
	// round-robin across clients within a class.
	Priority string `json:"priority,omitempty"`
	// ClientID groups jobs for fair queueing; empty shares the anonymous
	// bucket. The HTTP layer fills it from the X-Client-ID header when
	// the body leaves it empty.
	ClientID string `json:"client_id,omitempty"`
	// DeadlineSeconds is the job's end-to-end deadline from submission
	// (queue wait included); 0 = none. A deadline the measured queue-wait
	// and run-time estimates say cannot be met is rejected at admission
	// (429) or shed at dequeue, and retry backoff never sleeps past it.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Faults injects simulated device faults into a Machine job, in the
	// vsrun -faults DSL ("dev0:fail@2,dev1:transient@0.1"); see
	// cudasim.ParseFaultPlans. Chaos drills and the breaker e2e use it.
	Faults string `json:"faults,omitempty"`
	// Ligands restricts the screen to the named ligands of the synthetic
	// library — a coordinator's chunk; empty screens everything. Seed lanes
	// are keyed by ligand name, so a chunk's results are byte-identical to
	// the same ligands screened within the full library.
	Ligands []string `json:"ligands,omitempty"`
}

// withDefaults fills zero fields with their documented defaults.
func (r ScreenRequest) withDefaults() ScreenRequest {
	if r.Dataset == "" {
		r.Dataset = "2BSM"
	}
	if r.Library == 0 {
		r.Library = 8
	}
	if r.Spots == 0 {
		r.Spots = 4
	}
	if r.Metaheuristic == "" {
		r.Metaheuristic = "M3"
	}
	if r.Scale == 0 {
		r.Scale = 0.02
	}
	if r.Machine != "" && r.Mode == "" {
		r.Mode = "homogeneous"
	}
	if r.Priority == "" {
		r.Priority = "normal"
	}
	return r
}

// Normalized returns the request with every zero optional field replaced
// by its documented default — the exact request the service would run.
// The distributed coordinator normalizes before sharding so coordinator
// and workers agree on the library.
func (r ScreenRequest) Normalized() ScreenRequest { return r.withDefaults() }

// Validate rejects requests the workers could not run. It is called at
// admission so a bad request fails with 400 at submit time, not with a
// failed job minutes later.
func (r ScreenRequest) Validate() error {
	if err := core.CheckDatasetName(r.Dataset); err != nil {
		return err
	}
	if r.Library < 1 || r.Library > 10000 {
		return fmt.Errorf("service: library size %d out of range [1,10000]", r.Library)
	}
	if r.Spots < 1 || r.Spots > 128 {
		return fmt.Errorf("service: spots %d out of range [1,128]", r.Spots)
	}
	switch r.Metaheuristic {
	case "M1", "M2", "M3", "M4":
	default:
		return fmt.Errorf("service: unknown metaheuristic %q (want M1..M4)", r.Metaheuristic)
	}
	if !(r.Scale > 0 && r.Scale <= 1) {
		return fmt.Errorf("service: scale %g out of range (0,1]", r.Scale)
	}
	if r.Machine != "" {
		if _, err := tables.MachineByName(r.Machine); err != nil {
			return err
		}
	}
	if _, err := parseMode(r.Mode); err != nil {
		return err
	}
	if r.TimeoutSeconds < 0 {
		return fmt.Errorf("service: negative timeout %g", r.TimeoutSeconds)
	}
	if _, err := admission.ParseClass(r.Priority); err != nil {
		return err
	}
	if r.DeadlineSeconds < 0 {
		return fmt.Errorf("service: negative deadline %g", r.DeadlineSeconds)
	}
	if len(r.Ligands) > 0 {
		valid := make(map[string]bool, r.Library)
		for i := 0; i < r.Library; i++ {
			valid[core.SyntheticName(i)] = true
		}
		seen := make(map[string]bool, len(r.Ligands))
		for _, name := range r.Ligands {
			if !valid[name] {
				return fmt.Errorf("service: ligand %q not in the %d-ligand library", name, r.Library)
			}
			if seen[name] {
				return fmt.Errorf("service: duplicate ligand %q in shard", name)
			}
			seen[name] = true
		}
	}
	if r.Faults != "" {
		if r.Machine == "" {
			return fmt.Errorf("service: faults require a machine (the host backend has no devices)")
		}
		m, err := tables.MachineByName(r.Machine)
		if err != nil {
			return err
		}
		if _, err := cudasim.ParseFaultPlans(r.Faults, len(m.GPUs), r.Seed); err != nil {
			return err
		}
	}
	return nil
}

// parseMode maps the wire mode name to the scheduler's enum.
func parseMode(s string) (sched.Mode, error) {
	switch s {
	case "", "homogeneous":
		return sched.Homogeneous, nil
	case "heterogeneous":
		return sched.Heterogeneous, nil
	case "dynamic":
		return sched.Dynamic, nil
	}
	return 0, fmt.Errorf("service: unknown mode %q (want homogeneous, heterogeneous or dynamic)", s)
}

// backendFactory builds the request's backend factory: the host backend,
// or a pool backend over the requested machine's GPUs.
func (r ScreenRequest) backendFactory() (core.BackendFactory, error) {
	if r.Machine == "" {
		return core.HostBackendFactory(core.HostConfig{Real: !r.Modeled}), nil
	}
	m, err := tables.MachineByName(r.Machine)
	if err != nil {
		return nil, err
	}
	mode, err := parseMode(r.Mode)
	if err != nil {
		return nil, err
	}
	plans, err := cudasim.ParseFaultPlans(r.Faults, len(m.GPUs), r.Seed)
	if err != nil {
		return nil, err
	}
	return core.PoolBackendFactory(core.PoolConfig{
		Specs:  m.GPUs,
		Mode:   mode,
		Real:   !r.Modeled,
		Faults: plans,
	}), nil
}

// Job is one submitted screen. All fields are guarded by the owning
// Service's mutex; handlers only ever see View snapshots.
type Job struct {
	id        string
	state     JobState
	req       ScreenRequest
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    *core.ScreenResult
	cancel    context.CancelCauseFunc // non-nil exactly while running
	attempts  int                     // executions so far, retries included
	lastErr   string                  // most recent attempt error; kept on eventual success
	idemKey   string                  // client idempotency key, "" when none was sent
	cpLigands int                     // log[:cpLigands] is in the job's checkpoint records
	restored  *ResultView             // result replayed from the journal after a restart

	// Admission state.
	class           admission.Class // parsed from req.Priority
	deadline        time.Time       // submitted + DeadlineSeconds; zero when none
	probe           bool            // this job is the breaker's half-open probe
	deviceLost      bool            // the final attempt lost every device
	degraded        bool            // ran with reduced effort under pressure
	effortFactor    float64         // multiplier applied to the search budget
	effectiveScale  float64         // req.Scale after degradation
	cancelRequested bool            // a cancel was issued while running (journaled)

	// A replayed terminal job's runner detail, served as journaled.
	resplits int
	shards   []ShardView

	// rec is the job's span recorder, epoch-pinned to submission time;
	// the whole screening stack appends to it (the recorder has its own
	// locks, so it is deliberately outside the service-mutex contract).
	// Nil only for jobs restored from the journal, until first export.
	rec *trace.Recorder

	// partial holds the completed ligands by name: from the runner as they
	// complete, and at boot from the checkpoint records. /partial serves it.
	partial map[string]core.LigandRecord
	// log names them in completion order, the order a cursored /partial
	// pages through and checkpoint records are cut from. A restart
	// rebuilds it from the records only, which is why cursors carry the
	// service's incarnation.
	log []string
	// wake is closed once the job is settled; non-nil only while a held
	// /partial request waits on it.
	wake chan struct{}
}

// recorder returns the job's span recorder, building it for a job
// restored from the journal, whose recorder died with the old process.
func (j *Job) recorder() *trace.Recorder {
	if j.rec == nil {
		j.rec = &trace.Recorder{}
		if !j.submitted.IsZero() {
			j.rec.SetEpoch(j.submitted)
		}
	}
	return j.rec
}

// addPartial folds newly completed ligand records, in completion order,
// into the job's partial result set and completion log, releasing held
// /partial requests when the last requested ligand lands. Caller holds
// the service mutex.
func (j *Job) addPartial(recs ...core.LigandRecord) {
	if j.partial == nil {
		j.partial = make(map[string]core.LigandRecord, len(recs))
	}
	for _, rec := range recs {
		if _, ok := j.partial[rec.Name]; !ok {
			j.partial[rec.Name] = rec
			j.log = append(j.log, rec.Name)
		}
	}
	if j.settled() {
		j.wakeWaiters()
	}
}

// records returns the partial records of log[lo:hi]. Caller holds the
// service mutex.
func (j *Job) records(lo, hi int) []core.LigandRecord {
	out := make([]core.LigandRecord, 0, hi-lo)
	for _, name := range j.log[lo:hi] {
		out = append(out, j.partial[name])
	}
	return out
}

// total is the number of ligands the job was asked to screen.
func (j *Job) total() int {
	if len(j.req.Ligands) > 0 {
		return len(j.req.Ligands)
	}
	return j.req.Library
}

// settled reports that the job has nothing more to say: it is terminal,
// or every requested ligand is recorded — known at the last checkpoint
// callback, before the terminal journal record is written. Both are
// permanent. Caller holds the service mutex.
func (j *Job) settled() bool {
	return j.state.Terminal() || len(j.log) >= j.total()
}

// wakeWaiters releases the /partial requests held on the job. Caller
// holds the service mutex.
func (j *Job) wakeWaiters() {
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// RankEntry is one row of a job's ranking on the wire.
type RankEntry struct {
	Rank   int     `json:"rank"`
	Ligand string  `json:"ligand"`
	Atoms  int     `json:"atoms"`
	Score  float64 `json:"score"`
	Spot   int     `json:"spot"`
}

// ResultView is a finished job's outcome on the wire.
type ResultView struct {
	Ranking          []RankEntry `json:"ranking"`
	SimulatedSeconds float64     `json:"simulated_seconds"`
	Evaluations      int64       `json:"evaluations"`
	DeviceFaults     int64       `json:"device_faults,omitempty"`
	Resplits         int64       `json:"resplits,omitempty"`
	// RankingTotal is the full ranking length; when a response is
	// paginated, Ranking holds only the window starting at RankingOffset
	// and RankingTotal tells clients how far they can page.
	RankingTotal  int `json:"ranking_total,omitempty"`
	RankingOffset int `json:"ranking_offset,omitempty"`
	// WarmupFactors are the warm-up Percent factors measured by the
	// job's backend (heterogeneous pool jobs only), per kernel.
	WarmupFactors map[string][]float64 `json:"warmup_factors,omitempty"`
}

// Paginate clips the ranking to the page window, recording the full
// length in RankingTotal and the window start in RankingOffset. The
// journal always stores the full view; pagination happens per response.
func (rv *ResultView) Paginate(p Page) {
	if rv == nil {
		return
	}
	if rv.RankingTotal == 0 {
		rv.RankingTotal = len(rv.Ranking)
	}
	lo, hi := p.clip(len(rv.Ranking))
	rv.Ranking = rv.Ranking[lo:hi]
	rv.RankingOffset = lo
}

// Paged returns a paginated copy, leaving the receiver untouched — a
// job's ResultView may be shared across requests (journal-restored jobs,
// the coordinator's frozen terminal views), so handlers must never
// Paginate it in place.
func (rv *ResultView) Paged(p Page) *ResultView {
	if rv == nil {
		return nil
	}
	cp := *rv
	cp.Paginate(p)
	return &cp
}

// JobView is a consistent snapshot of a job for JSON responses, and the
// journal's snapshot record, so every field must round-trip through JSON.
// A done job with Attempts > 1 recovered from transient failures, the
// latest named by LastError; CheckpointLigands counts the ligands its
// checkpoint records hold.
type JobView struct {
	ID                string        `json:"id"`
	State             JobState      `json:"state"`
	Request           ScreenRequest `json:"request"`
	SubmittedAt       time.Time     `json:"submitted_at"`
	StartedAt         *time.Time    `json:"started_at,omitempty"`
	FinishedAt        *time.Time    `json:"finished_at,omitempty"`
	Error             string        `json:"error,omitempty"`
	Attempts          int           `json:"attempts,omitempty"`
	LastError         string        `json:"last_error,omitempty"`
	IdempotencyKey    string        `json:"idempotency_key,omitempty"`
	CheckpointLigands int           `json:"checkpoint_ligands,omitempty"`
	// Completed and Total count the job's completed and requested ligands.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// DeadlineAt is the absolute deadline a deadline_seconds request was
	// admitted against.
	DeadlineAt *time.Time `json:"deadline_at,omitempty"`
	// Degraded, EffortFactor and EffectiveScale record graceful
	// degradation: the job ran with its search budget multiplied by
	// EffortFactor, so a ranking never silently changes meaning.
	Degraded       bool    `json:"degraded,omitempty"`
	EffortFactor   float64 `json:"effort_factor,omitempty"`
	EffectiveScale float64 `json:"effective_scale,omitempty"`
	// Resplits and Shards are a distributed runner's detail: how often a
	// dead worker's ligands went back to the pool, and the job's chunks.
	Resplits int         `json:"resplits,omitempty"`
	Shards   []ShardView `json:"shards,omitempty"`
	Result   *ResultView `json:"result,omitempty"`
}

// ShardView is one chunk of a distributed job: the ligands one worker was
// handed, how many of them merged, and whether the chunk is done or was
// fenced (moved). A backup names the chunk it backs in HedgeOf.
type ShardView struct {
	ID      string `json:"id"`
	Worker  string `json:"worker"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Ligands int    `json:"ligands"`
	Merged  int    `json:"merged"`
	Remote  string `json:"remote,omitempty"`
	Done    bool   `json:"done,omitempty"`
	Moved   bool   `json:"moved,omitempty"`
	HedgeOf string `json:"hedge_of,omitempty"`
}

// resultView renders an engine result for the wire.
func resultView(res *core.ScreenResult) *ResultView {
	rv := &ResultView{
		SimulatedSeconds: res.SimulatedSeconds,
		Evaluations:      res.Evaluations,
		DeviceFaults:     res.DeviceFaults,
		Resplits:         res.Resplits,
		RankingTotal:     len(res.Ranking),
		WarmupFactors:    res.WarmupFactors,
	}
	for i, e := range res.Ranking {
		rv.Ranking = append(rv.Ranking, RankEntry{
			Rank:   i + 1,
			Ligand: e.Ligand.Name,
			Atoms:  e.Ligand.NumAtoms(),
			Score:  e.Result.Best.Score,
			Spot:   e.Result.Best.Spot,
		})
	}
	return rv
}

// view snapshots the job. Caller holds the service mutex.
func (j *Job) view() JobView {
	v := JobView{
		ID:                j.id,
		State:             j.state,
		Request:           j.req,
		SubmittedAt:       j.submitted,
		Error:             j.err,
		Attempts:          j.attempts,
		LastError:         j.lastErr,
		IdempotencyKey:    j.idemKey,
		CheckpointLigands: j.cpLigands,
		Completed:         len(j.log),
		Total:             j.total(),
		Degraded:          j.degraded,
		EffortFactor:      j.effortFactor,
		EffectiveScale:    j.effectiveScale,
		Resplits:          j.resplits,
		Shards:            j.shards,
		DeadlineAt:        timeOrNil(j.deadline),
		StartedAt:         timeOrNil(j.started),
		FinishedAt:        timeOrNil(j.finished),
	}
	switch {
	case j.result != nil:
		v.Result = resultView(j.result)
	case j.restored != nil:
		// The engine result died with the previous process; the journaled
		// view is the source of truth.
		v.Result = j.restored
	}
	return v
}

// timeOrNil is t on the wire: absent when zero.
func timeOrNil(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// timeOf reverses timeOrNil.
func timeOf(t *time.Time) time.Time {
	if t == nil {
		return time.Time{}
	}
	return *t
}
