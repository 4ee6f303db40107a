package service

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/metascreen/metascreen/internal/core"
)

// Pagination and partial rankings: GET responses window a large ranking
// with limit/offset, and a running job exposes the ligands it completed so
// far, which a coordinator merges as they stream in.

// DefaultRankingLimit caps a ranking response when the client sends no
// limit; MaxRankingLimit caps what a client may ask for. Both protect the
// service from shipping unbounded payloads per request.
const (
	DefaultRankingLimit = 1000
	MaxRankingLimit     = 10000
)

// Page is a limit/offset window over a ranking.
type Page struct {
	Limit  int
	Offset int
}

// DefaultPage is the window applied when the client sends no parameters.
func DefaultPage() Page { return Page{Limit: DefaultRankingLimit} }

// ParsePage reads limit/offset query parameters, applying the documented
// defaults and caps. Malformed or non-positive limits and negative
// offsets are client errors.
func ParsePage(q url.Values) (Page, error) {
	p := DefaultPage()
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("service: limit %q must be a positive integer", v)
		}
		if n > MaxRankingLimit {
			n = MaxRankingLimit
		}
		p.Limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("service: offset %q must be a non-negative integer", v)
		}
		p.Offset = n
	}
	return p, nil
}

// clip resolves the window against a ranking of n entries.
func (p Page) clip(n int) (lo, hi int) {
	lo = p.Offset
	if lo > n {
		lo = n
	}
	hi = n
	if p.Limit > 0 && lo+p.Limit < hi {
		hi = lo + p.Limit
	}
	return lo, hi
}

// PartialEntry is one completed ligand of a still-running (or finished)
// screen. Unlike RankEntry it carries the ligand's own modeled time and
// evaluation count, so a coordinator merging shards can rebuild the
// screen totals in library order — bit-identical to a single-node sum.
type PartialEntry struct {
	Rank        int     `json:"rank"`
	Ligand      string  `json:"ligand"`
	Atoms       int     `json:"atoms"`
	Score       float64 `json:"score"`
	Spot        int     `json:"spot"`
	SimSeconds  float64 `json:"sim_seconds"`
	Evaluations int64   `json:"evaluations"`
}

// Record is the entry as a checkpoint record: what ranking and totals
// need, without the pose.
func (e PartialEntry) Record() core.LigandRecord {
	return core.LigandRecord{
		Name: e.Ligand, Atoms: e.Atoms, Best: core.PoseRecord{Spot: e.Spot, Score: e.Score},
		Evaluations: e.Evaluations, SimulatedSeconds: e.SimSeconds,
	}
}

// PartialView is a point-in-time ranking of the ligands a job has
// completed so far, sorted by the same score-then-name rule as the final
// ranking. For a terminal job it holds the complete ranking. A cursored
// request (PartialQuery.Delta) instead gets the entries past its cursor
// in completion order, unranked, plus the cursor to send next.
type PartialView struct {
	ID        string         `json:"id"`
	State     JobState       `json:"state"`
	Completed int            `json:"completed"`
	Total     int            `json:"total"`
	Entries   []PartialEntry `json:"entries"`
	// EntriesTotal and EntriesOffset window Entries like a paginated
	// ranking; EntriesTotal always counts every completed ligand.
	EntriesTotal  int `json:"entries_total,omitempty"`
	EntriesOffset int `json:"entries_offset,omitempty"`
	// Cursor is the position after the last entry of a cursored response;
	// the caller sends it back verbatim as the next `since`.
	Cursor string `json:"cursor,omitempty"`
}

// MaxPartialWait caps how long one /partial request is held, whatever
// `wait` asked for.
const MaxPartialWait = 10 * time.Second

// cursor is a position in one incarnation of a job's completion log. On
// the wire it is the opaque string "<incarnation>-<offset>"; the empty
// string is the from-zero cursor a caller starts with.
type cursor struct {
	inc uint64
	off int
}

func (c cursor) String() string {
	return strconv.FormatUint(c.inc, 16) + "-" + strconv.Itoa(c.off)
}

func parseCursor(v string) (cursor, error) {
	if v == "" {
		return cursor{}, nil
	}
	a, b, _ := strings.Cut(v, "-")
	inc, err := strconv.ParseUint(a, 16, 64)
	if err != nil {
		return cursor{}, fmt.Errorf("service: since %q is not a cursor", v)
	}
	off, err := strconv.Atoi(b)
	if err != nil || off < 0 {
		return cursor{}, fmt.Errorf("service: since %q is not a cursor", v)
	}
	return cursor{inc: inc, off: off}, nil
}

// PartialQuery is a /partial request's parsed query. The zero value plus
// a Page is the classic request: answered at once, sorted and ranked.
type PartialQuery struct {
	Page Page
	// Delta selects the cursored response: the entries past Since, in
	// completion order, at most Page.Limit of them (Page.Offset does not
	// apply — the cursor is the offset).
	Delta bool
	Since cursor
	// Wait holds the request until the job is settled (complete or
	// terminal), Wait elapses, the caller goes away or the service starts
	// draining; 0 answers at once.
	Wait time.Duration
}

// ParsePartialQuery reads limit, offset, since and wait. Malformed or
// negative values are client errors; a wait above MaxPartialWait is clamped.
func ParsePartialQuery(q url.Values) (PartialQuery, error) {
	page, err := ParsePage(q)
	if err != nil {
		return PartialQuery{}, err
	}
	pq := PartialQuery{Page: page, Delta: q.Has("since")}
	if pq.Since, err = parseCursor(q.Get("since")); err != nil {
		return PartialQuery{}, err
	}
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return PartialQuery{}, fmt.Errorf("service: wait %q must be a non-negative duration", v)
		}
		pq.Wait = min(d, MaxPartialWait)
	}
	return pq, nil
}

// Partial snapshots the ligands a job has completed so far, after holding
// for q.Wait if asked to. A cursor this process did not issue, or one past
// the end of the log, is served from zero: the log it pointed into died
// with a previous process, and a caller that merges by ligand name loses
// nothing by seeing entries twice.
func (s *Service) Partial(ctx context.Context, id string, q PartialQuery) (PartialView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return PartialView{}, ErrNotFound
	}
	if q.Wait > 0 && !j.settled() && !s.draining {
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		wake := j.wake
		s.mu.Unlock()
		t := time.NewTimer(q.Wait)
		select {
		case <-wake:
		case <-t.C:
		case <-ctx.Done():
		case <-s.drain:
		}
		t.Stop()
		s.mu.Lock()
	}
	n := len(j.log)
	lo, hi := 0, n
	if q.Delta {
		if q.Since.inc == s.incarnation && q.Since.off <= n {
			lo = q.Since.off
		}
		_, hi = Page{Limit: q.Page.Limit, Offset: lo}.clip(n)
	}
	pv := PartialView{
		ID: j.id, State: j.state, Completed: n, Total: j.total(),
		EntriesTotal: n,
	}
	if hi > lo {
		pv.Entries = make([]PartialEntry, 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		rec := j.partial[j.log[i]]
		pv.Entries = append(pv.Entries, PartialEntry{
			Ligand:      rec.Name,
			Atoms:       rec.Atoms,
			Score:       rec.Best.Score,
			Spot:        rec.Best.Spot,
			SimSeconds:  rec.SimulatedSeconds,
			Evaluations: rec.Evaluations,
		})
	}
	s.mu.Unlock()

	// Sorting and ranking up to MaxRankingLimit entries happens off the
	// service lock: submits, status reads and checkpoint callbacks must
	// not queue behind a poll.
	if q.Delta {
		pv.EntriesOffset = lo
		pv.Cursor = cursor{inc: s.incarnation, off: hi}.String()
		return pv, nil
	}
	sort.Slice(pv.Entries, func(a, b int) bool {
		if pv.Entries[a].Score != pv.Entries[b].Score {
			return pv.Entries[a].Score < pv.Entries[b].Score
		}
		return pv.Entries[a].Ligand < pv.Entries[b].Ligand
	})
	for i := range pv.Entries {
		pv.Entries[i].Rank = i + 1
	}
	lo, hi = q.Page.clip(n)
	pv.Entries = pv.Entries[lo:hi]
	pv.EntriesOffset = lo
	return pv, nil
}
