package wal

import (
	"encoding/json"
	"errors"
	"sync"
	"syscall"
	"time"
)

// StorageProbeInterval rate-limits degraded-mode recovery probes (each
// probe attempts a journal Recover plus a full compaction). A variable so
// tests can zero it.
var StorageProbeInterval = time.Second

// LogConfig is what a role hands OpenLog: the journal's options, its
// state callbacks, and hooks into the role's own metric families (nil
// ignores).
type LogConfig[E any] struct {
	Options
	CompactBytes int64            // compaction floor; 0 means 4 MiB
	Apply        func(E)          // folds one replayed record into the role's state
	Snapshot     func() []E       // the records that rebuild the current state
	Now          func() time.Time // degraded mode's clock; nil means time.Now

	OnAppend  func(bytes int) // a record landed
	OnSkip    func()          // an append was skipped while degraded
	OnError   func()          // an append, compaction or replay decode failed
	OnCompact func()          // a compaction landed
	OnRecover func()          // a retry or a probe restored journaling
}

func (c LogConfig[E]) withDefaults() LogConfig[E] {
	c.Options = c.Options.withDefaults()
	if c.CompactBytes <= 0 {
		c.CompactBytes = 4 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.OnAppend == nil {
		c.OnAppend = func(int) {}
	}
	for _, h := range []*func(){&c.OnSkip, &c.OnError, &c.OnCompact, &c.OnRecover} {
		if *h == nil {
			*h = func() {}
		}
	}
	return c
}

// Status is a log's degraded-mode state, in the shape both roles serve;
// Reason is "disk_full" or "io_error" while degraded.
type Status struct {
	Degraded     bool    `json:"degraded"`
	Reason       string  `json:"reason,omitempty"`
	SinceSeconds float64 `json:"since_seconds,omitempty"`
}

// Log is a typed event log, one JSON record per event, and the durability
// policy both vsserved roles share; each role supplies only its event
// type, Apply and Snapshot. The log decides:
//
//   - when a record is durable: Append reports whether it landed, and a
//     role acknowledges only what did;
//   - what a failed append does: one Recover-and-retry for a transient
//     fault; a full disk or a second failure degrades the log to
//     read-only, skipping (and counting) appends;
//   - when to compact: once the journal outgrows both CompactBytes and
//     twice its size right after the last compaction (Redis's AOF-rewrite
//     rule at 100 %), so compaction is amortised O(1) per append;
//   - how degraded mode ends: a probe, at most once per
//     StorageProbeInterval, must Recover the journal and land a full
//     compaction, which writes what the skipped appends left out.
//
// Its methods are safe for concurrent use. Snapshot runs inside Append and
// Probe under the log's lock; both roles call those with their own state
// lock held, which keeps the snapshot consistent. A nil *Log is the log of
// a role without a data dir: every record lands and it never degrades.
type Log[E any] struct {
	cfg LogConfig[E]

	mu        sync.Mutex
	j         *Journal
	last      int64 // journal size right after the last compaction
	degraded  bool
	reason    string
	since     time.Time
	lastProbe time.Time
}

// OpenLog opens (or creates) the journal in dir and replays it through
// cfg.Apply, oldest record first. A record that frames correctly but no
// longer decodes is skipped and counted, not fatal: replay keeps every
// applicable record.
func OpenLog[E any](dir string, cfg LogConfig[E]) (*Log[E], RecoveryInfo, error) {
	cfg = cfg.withDefaults()
	j, info, err := Open(dir, cfg.Options)
	if err != nil {
		return nil, info, err
	}
	err = j.Replay(func(rec []byte) error {
		var ev E
		if json.Unmarshal(rec, &ev) != nil {
			cfg.OnError()
			return nil
		}
		cfg.Apply(ev)
		return nil
	})
	if err != nil {
		j.Close()
		return nil, info, err
	}
	return &Log[E]{cfg: cfg, j: j}, info, nil
}

// Append journals records, several under one fsync, and reports whether
// they landed. A degraded log skips them. A failed append is retried once
// after a Recover unless the disk is full; a full disk or a second
// failure degrades the log. Landed records may trigger a compaction,
// which includes them.
func (l *Log[E]) Append(evs ...E) bool {
	if l == nil {
		return true
	}
	bs := make([][]byte, len(evs))
	var err error
	for i, ev := range evs {
		if b, merr := marshal(ev); merr != nil {
			err = merr
		} else {
			bs[i] = b
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded {
		l.cfg.OnSkip()
		return false
	}
	if err != nil {
		l.cfg.OnError()
		l.cfg.Logf("wal: encoding a record failed: %v", err)
		return false
	}
	if err := l.j.Append(bs...); err != nil {
		l.cfg.OnError()
		l.cfg.Logf("wal: append failed: %v", err)
		// One shot at recovery for transient I/O faults. A full disk is not
		// transient — retrying the same bytes cannot help.
		if errors.Is(err, syscall.ENOSPC) || l.j.Recover() != nil || l.j.Append(bs...) != nil {
			l.degradeLocked(err)
			return false
		}
		l.cfg.OnRecover()
		l.cfg.Logf("wal: append recovered after a transient failure")
	}
	for _, b := range bs {
		l.cfg.OnAppend(len(b))
	}
	if l.j.Size() > max(l.cfg.CompactBytes, 2*l.last) {
		l.compactLocked()
	}
	return true
}

// marshal encodes one record. A record type that encodes itself is not
// put through encoding/json's second, validating pass over its bytes.
func marshal[E any](ev E) ([]byte, error) {
	if m, ok := any(ev).(json.Marshaler); ok {
		return m.MarshalJSON()
	}
	return json.Marshal(ev)
}

// degradeLocked enters degraded read-only mode. Caller holds l.mu.
func (l *Log[E]) degradeLocked(cause error) {
	l.degraded, l.reason, l.since = true, "io_error", l.cfg.Now()
	if errors.Is(cause, syscall.ENOSPC) {
		l.reason = "disk_full"
	}
	l.cfg.Logf("wal: entering degraded read-only mode (%s): %v", l.reason, cause)
}

// compactLocked replaces the journal's history with the role's snapshot,
// reporting success. Caller holds l.mu.
func (l *Log[E]) compactLocked() bool {
	evs := l.cfg.Snapshot()
	live := make([][]byte, 0, len(evs))
	for _, ev := range evs {
		b, err := marshal(ev)
		if err != nil {
			l.cfg.OnError()
			return false
		}
		live = append(live, b)
	}
	if err := l.j.Compact(live); err != nil {
		l.cfg.OnError()
		l.cfg.Logf("wal: compaction failed: %v", err)
		return false
	}
	l.last = l.j.Size()
	l.cfg.OnCompact()
	return true
}

// Probe reports whether the log takes appends, first trying to end
// degraded mode if it is in it: at most once per StorageProbeInterval the
// journal must Recover and a full compaction must land.
func (l *Log[E]) Probe() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.degraded {
		return true
	}
	now := l.cfg.Now()
	if StorageProbeInterval > 0 && now.Sub(l.lastProbe) < StorageProbeInterval {
		return false
	}
	l.lastProbe = now
	if l.j.Recover() != nil || !l.compactLocked() {
		return false
	}
	l.degraded, l.reason = false, ""
	l.cfg.OnRecover()
	l.cfg.Logf("wal: storage recovered after %.1fs degraded, journaling re-enabled", now.Sub(l.since).Seconds())
	return true
}

// Status reports degraded mode.
func (l *Log[E]) Status() Status {
	if l == nil {
		return Status{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.degraded {
		return Status{}
	}
	return Status{Degraded: true, Reason: l.reason, SinceSeconds: l.cfg.Now().Sub(l.since).Seconds()}
}

// Close syncs and closes the journal.
func (l *Log[E]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.j.Close()
}
