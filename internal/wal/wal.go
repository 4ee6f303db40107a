// Package wal is an append-only write-ahead journal: length+CRC32-framed
// records in rotated segment files, with a configurable fsync policy and
// torn-tail recovery. Both vsserved roles journal their state through it
// so a crashed or SIGKILLed process rebuilds its job table on the next
// boot instead of losing every queued and running screen.
//
// The durability contracts:
//
//   - A record either replays whole or not at all: each record carries the
//     CRC32 of its payload, so a torn write (crash mid-append) or a
//     bit-flipped tail is detected, truncated with a warning, and never
//     replayed corrupt — recovery yields the longest valid prefix.
//   - Open never panics on damaged input; any file content, including
//     fuzz-generated garbage, recovers to a consistent journal (see
//     FuzzJournalReplay). Corrupt tail bytes and segments that followed a
//     corrupt record are quarantined under <dir>/quarantine for
//     post-mortem, never silently deleted.
//   - Appends go to the newest segment; segments rotate at SegmentBytes so
//     compaction can atomically replace history (temp file + rename +
//     directory fsync) with a snapshot of the live records without
//     rewriting unbounded data.
//   - A write or fsync failure fail-stops the journal (fsyncgate
//     semantics): after a failed fsync the kernel may have dropped the
//     dirty pages, so retrying the same fd can report success for data
//     that never reached the platter. Every Append after a failure returns
//     the sticky error until Recover reopens the segment from its last
//     acknowledged size and proves a fresh fsync works.
//
// All file I/O goes through an injectable fsim.FS, so storage chaos
// (-chaos disk clauses) and the crash-point explorer exercise these
// paths deterministically.
//
// Records are opaque bytes to a Journal. Log (log.go) layers typed JSON
// events over it, together with the durability policy both vsserved roles
// journal through.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
)

const (
	// headerSize frames each record: 4-byte little-endian payload length
	// followed by the 4-byte IEEE CRC32 of the payload.
	headerSize = 8
	// MaxRecordBytes bounds one record; a corrupt length field beyond it is
	// treated as a damaged tail, not an allocation request.
	MaxRecordBytes = 16 << 20
	// defaultSegmentBytes rotates segments at 8 MiB.
	defaultSegmentBytes = 8 << 20
	// defaultSyncInterval is the SyncInterval policy's default cadence.
	defaultSyncInterval = 100 * time.Millisecond
	// quarantineDir is the subdirectory corrupt segments and tails are
	// moved into during recovery, preserved for post-mortem.
	quarantineDir = "quarantine"
)

// SyncPolicy says when appends reach the disk platter.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged record is ever
	// lost to a crash. The default, and the slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncInterval: an append
	// syncs when the last sync is older than that, and a one-shot
	// background flush syncs what an idle journal still holds one interval
	// after its first unsynced append. A crash loses at most that window
	// of acknowledged records.
	SyncInterval
	// SyncNever leaves flushing to the OS; a crash can lose everything
	// since the last kernel writeback. For tests and throwaway runs.
	SyncNever
)

// String names the policy the way ParseSyncPolicy spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -fsync flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a journal.
type Options struct {
	// SegmentBytes rotates the active segment when it would exceed this
	// size; 0 means 8 MiB.
	SegmentBytes int64
	// Policy is the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// SyncInterval is the SyncInterval policy's cadence; 0 means 100ms.
	SyncInterval time.Duration
	// Logf receives recovery warnings (torn tails, quarantined segments)
	// and I/O error reports; nil discards them.
	Logf func(format string, args ...any)
	// FS is the filesystem the journal writes through; nil means the real
	// one (fsim.OSFS()). Chaos tests and the crash-point explorer inject a
	// fsim.Faulty here.
	FS fsim.FS
	// OnIOError observes every I/O failure the journal absorbs or
	// surfaces, labeled by operation ("append", "sync", "dirsync",
	// "remove", "quarantine", ...). The service counts these in
	// wal_io_errors_total. Nil ignores.
	OnIOError func(op string, err error)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = defaultSyncInterval
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.FS == nil {
		o.FS = fsim.OSFS()
	}
	if o.OnIOError == nil {
		o.OnIOError = func(string, error) {}
	}
	return o
}

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// Segments is the number of journal segments after recovery.
	Segments int
	// Records is the number of valid records available for replay.
	Records int
	// TruncatedBytes counts bytes dropped from a torn or corrupt tail
	// (preserved under quarantine/ as <segment>.tail).
	TruncatedBytes int64
	// QuarantinedSegments counts whole segments moved to quarantine/
	// because they followed a corrupt record (replay keeps a consistent
	// prefix).
	QuarantinedSegments int
}

// Journal is an open write-ahead journal. Append, Compact and Close
// are safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	dir  string
	opts Options
	fs   fsim.FS

	f        fsim.File // active segment, opened for append; nil while failed
	seg      int       // active segment index
	segSize  int64     // active segment's acknowledged (durable-intent) size
	total    int64     // all segments' bytes
	lastSync time.Time
	failed   error // sticky fail-stop cause; nil when healthy
	closed   bool
	// Under SyncInterval: dirty marks acknowledged bytes not yet synced,
	// and flush is the pending one-shot timer that syncs them (nil when
	// none is armed).
	dirty bool
	flush *time.Timer
}

// segmentName formats a segment file name; indices are dense but need not
// start at 1 (compaction advances them).
func segmentName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// listSegments returns the sorted segment indices present in dir.
func listSegments(fs fsim.FS, dir string) ([]int, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idx []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &n); err == nil &&
			e.Name() == segmentName(n) {
			idx = append(idx, n)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// ioError reports one absorbed or surfaced I/O failure.
func (j *Journal) ioError(op string, err error) {
	j.opts.OnIOError(op, err)
	j.opts.Logf("wal: %s failed: %v", op, err)
}

// Open opens (or creates) the journal in dir, recovering from any torn or
// corrupt tail: the damaged suffix is truncated with a warning — its bytes
// preserved under quarantine/ — and later segments are quarantined, so the
// surviving records form the longest valid prefix of what was written. It
// never panics on damaged input.
func Open(dir string, opts Options) (*Journal, RecoveryInfo, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	var info RecoveryInfo
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("wal: %w", err)
	}
	// Leftover temp files are failed compactions; they were never live.
	if tmps, err := fs.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			if rerr := fs.Remove(t); rerr != nil {
				opts.OnIOError("remove", rerr)
				opts.Logf("wal: removing stale temp %s failed: %v", t, rerr)
			}
		}
	}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, info, fmt.Errorf("wal: %w", err)
	}
	if len(segs) == 0 {
		segs = []int{1}
		f, err := fs.OpenFile(filepath.Join(dir, segmentName(1)),
			os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, info, fmt.Errorf("wal: %w", err)
		}
		f.Close()
	}

	// Scan segments in order; the first invalid record ends the valid
	// prefix — its segment is truncated there (tail bytes quarantined) and
	// later segments moved aside whole.
	j := &Journal{dir: dir, opts: opts, fs: fs, lastSync: time.Now()}
	active := 0 // position in segs of the segment that ends the prefix
	for k, idx := range segs {
		path := filepath.Join(dir, segmentName(idx))
		data, err := fs.ReadFile(path)
		if err != nil {
			return nil, info, fmt.Errorf("wal: %w", err)
		}
		recs, valid := ScanRecords(data)
		info.Records += len(recs)
		j.total += int64(valid)
		active = k
		if valid < len(data) {
			info.TruncatedBytes += int64(len(data) - valid)
			opts.Logf("wal: recovery warning: segment %s: quarantining %d corrupt tail bytes (kept %d records)",
				segmentName(idx), len(data)-valid, len(recs))
			quarantineBytes(fs, opts, dir, segmentName(idx)+".tail", data[valid:])
			if err := fs.Truncate(path, int64(valid)); err != nil {
				return nil, info, fmt.Errorf("wal: truncate %s: %w", segmentName(idx), err)
			}
			for _, later := range segs[k+1:] {
				info.QuarantinedSegments++
				opts.Logf("wal: recovery warning: quarantining segment %s after corrupt record in %s",
					segmentName(later), segmentName(idx))
				quarantineSegment(fs, opts, dir, segmentName(later))
			}
			break
		}
	}
	segs = segs[:active+1]
	info.Segments = len(segs)

	j.seg = segs[len(segs)-1]
	f, err := fs.OpenFile(filepath.Join(dir, segmentName(j.seg)),
		os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, info, fmt.Errorf("wal: %w", err)
	}
	j.f = f
	j.segSize = st.Size()
	if info.TruncatedBytes > 0 || info.QuarantinedSegments > 0 {
		if err := fs.SyncDir(dir); err != nil {
			j.ioError("dirsync", err)
		}
	}
	return j, info, nil
}

// quarantineBytes preserves corrupt bytes under dir/quarantine/name for
// post-mortem. Best effort: a failure is reported, not fatal — losing the
// post-mortem copy must never block recovery.
func quarantineBytes(fs fsim.FS, opts Options, dir, name string, data []byte) {
	qdir := filepath.Join(dir, quarantineDir)
	if err := fs.MkdirAll(qdir, 0o755); err != nil {
		opts.OnIOError("quarantine", err)
		return
	}
	f, err := fs.OpenFile(filepath.Join(qdir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		opts.OnIOError("quarantine", err)
		return
	}
	if _, err := f.Write(data); err != nil {
		opts.OnIOError("quarantine", err)
	}
	f.Close()
}

// quarantineSegment moves a whole segment into dir/quarantine. If the
// move fails the segment is removed instead — it must not be replayed,
// because its records follow a corrupt record in an earlier segment.
func quarantineSegment(fs fsim.FS, opts Options, dir, name string) {
	qdir := filepath.Join(dir, quarantineDir)
	if err := fs.MkdirAll(qdir, 0o755); err == nil {
		if err := fs.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err == nil {
			return
		} else {
			opts.OnIOError("quarantine", err)
		}
	} else {
		opts.OnIOError("quarantine", err)
	}
	if err := fs.Remove(filepath.Join(dir, name)); err != nil {
		opts.OnIOError("remove", err)
		opts.Logf("wal: could not quarantine or remove segment %s: %v", name, err)
	}
}

// ScanRecords parses framed records out of raw segment bytes, returning
// the decoded payloads and the byte length of the valid prefix. It stops
// at the first truncated or corrupt record and never panics; re-encoding
// the returned records reproduces data[:validLen] exactly.
func ScanRecords(data []byte) (records [][]byte, validLen int) {
	off := 0
	for {
		if len(data)-off < headerSize {
			return records, off
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecordBytes || len(data)-off-headerSize < int(n) {
			return records, off
		}
		payload := data[off+headerSize : off+headerSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off
		}
		rec := make([]byte, n)
		copy(rec, payload)
		records = append(records, rec)
		off += headerSize + int(n)
	}
}

// AppendFrame appends one framed record to buf and returns the extended
// buffer — the exact bytes Append writes for the payload.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append journals records in one write, rotating the segment first and
// syncing once per the configured policy. After a write or sync failure
// the journal is fail-stopped: every further Append returns the sticky
// error until Recover succeeds.
func (j *Journal) Append(payloads ...[]byte) error {
	var frame []byte
	for _, payload := range payloads {
		if int64(len(payload)) > MaxRecordBytes {
			return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), int64(MaxRecordBytes))
		}
		frame = AppendFrame(frame, payload)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	if j.failed != nil {
		return fmt.Errorf("wal: journal fail-stopped: %w", j.failed)
	}
	if j.segSize > 0 && j.segSize+int64(len(frame)) > j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		// The segment now holds an unacknowledged (possibly torn) suffix;
		// fail-stop. Recover truncates back to segSize — the last size
		// whose bytes were acknowledged.
		j.failStopLocked("append", err)
		return fmt.Errorf("wal: append: %w", err)
	}
	j.segSize += int64(len(frame))
	j.total += int64(len(frame))
	if err := j.maybeSyncLocked(); err != nil {
		// The append was not acknowledged: exclude its frame from the
		// acknowledged size so Recover truncates it away rather than
		// replaying a record whose durability is unknown.
		j.segSize -= int64(len(frame))
		j.total -= int64(len(frame))
		return err
	}
	return nil
}

// failStopLocked records the sticky failure. Caller holds j.mu.
func (j *Journal) failStopLocked(op string, err error) {
	j.failed = err
	j.ioError(op, err)
	j.opts.Logf("wal: fail-stop on segment %s after %s failure: %v", segmentName(j.seg), op, err)
}

// Recover attempts to return a fail-stopped journal to service after the
// underlying condition clears (disk space freed, transient controller
// error gone). Per fsyncgate semantics the poisoned fd is abandoned, not
// retried: the active segment is truncated back to its last acknowledged
// size, reopened fresh, and a probe fsync of both the file and the
// directory must succeed before appends are accepted again. A no-op on a
// healthy journal.
func (j *Journal) Recover() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	if j.failed == nil {
		return nil
	}
	path := filepath.Join(j.dir, segmentName(j.seg))
	if j.f != nil {
		j.f.Close() // abandon the poisoned fd; its error tells us nothing new
		j.f = nil
	}
	if err := j.fs.Truncate(path, j.segSize); err != nil {
		j.ioError("truncate", err)
		return fmt.Errorf("wal: recover truncate: %w", err)
	}
	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.ioError("reopen", err)
		return fmt.Errorf("wal: recover reopen: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		j.ioError("sync", err)
		return fmt.Errorf("wal: recover probe sync: %w", err)
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		f.Close()
		j.ioError("dirsync", err)
		return fmt.Errorf("wal: recover dir sync: %w", err)
	}
	j.f = f
	j.failed = nil
	j.lastSync, j.dirty = time.Now(), false
	j.opts.Logf("wal: recovered segment %s at %d bytes", segmentName(j.seg), j.segSize)
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		j.failStopLocked("sync", err)
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	j.dirty = false
	if err := j.f.Close(); err != nil {
		j.failStopLocked("close", err)
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	j.seg++
	j.segSize = 0
	f, err := j.fs.OpenFile(filepath.Join(j.dir, segmentName(j.seg)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		j.f = nil
		j.failStopLocked("rotate", err)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	j.f = f
	if err := j.fs.SyncDir(j.dir); err != nil {
		// The new segment's dir entry may not survive a power loss; records
		// appended to it would vanish. Fail-stop until Recover proves the
		// directory syncs.
		j.failStopLocked("dirsync", err)
		return fmt.Errorf("wal: rotate dir sync: %w", err)
	}
	return nil
}

// maybeSyncLocked applies the fsync policy after an append.
func (j *Journal) maybeSyncLocked() error {
	switch j.opts.Policy {
	case SyncAlways:
		return j.syncLocked()
	case SyncInterval:
		if time.Since(j.lastSync) >= j.opts.SyncInterval {
			return j.syncLocked()
		}
		j.dirty = true
		if j.flush == nil {
			j.flush = time.AfterFunc(j.opts.SyncInterval, j.flushDirty)
		}
	}
	return nil
}

// flushDirty is the SyncInterval background flush: it syncs what no later
// append has. A failure fail-stops the journal like any other sync.
func (j *Journal) flushDirty() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flush = nil
	if j.dirty && !j.closed && j.failed == nil {
		j.syncLocked()
	}
}

func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		// fsyncgate: after a failed fsync the dirty pages may already be
		// gone; a retry that reports success proves nothing. Fail-stop and
		// make Recover reopen from the last acknowledged size.
		j.failStopLocked("sync", err)
		return fmt.Errorf("wal: sync: %w", err)
	}
	j.lastSync = time.Now()
	j.dirty = false
	return nil
}

// Size is the journal's on-disk byte size across all segments.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Replay streams every record, oldest first, to fn; a non-nil fn error
// stops the replay and is returned. The records are the valid prefix Open
// recovered (concurrent Appends during a replay may or may not be seen).
func (j *Journal) Replay(fn func(rec []byte) error) error {
	j.mu.Lock()
	dir, fs := j.dir, j.fs
	j.mu.Unlock()
	segs, err := listSegments(fs, dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, idx := range segs {
		data, err := fs.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		recs, _ := ScanRecords(data)
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Compact atomically replaces the journal's history with the given live
// records: they are written to a temp file, fsynced, renamed into place as
// the next segment, and the directory is fsynced — only then are the old
// segments deleted. A crash at any point leaves either the old history, or
// the old history plus the snapshot — callers' records must therefore be
// last-write-wins (the service journals full job snapshots), which makes
// both replays converge.
func (j *Journal) Compact(live [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	if j.failed != nil {
		return fmt.Errorf("wal: journal fail-stopped: %w", j.failed)
	}
	newIdx := j.seg + 1
	newPath := filepath.Join(j.dir, segmentName(newIdx))
	tmp := newPath + ".tmp"
	f, err := j.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	var buf []byte
	for _, rec := range live {
		buf = AppendFrame(buf, rec)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = j.fs.Rename(tmp, newPath)
	}
	if err != nil {
		if rerr := j.fs.Remove(tmp); rerr != nil {
			j.ioError("remove", rerr)
		}
		return fmt.Errorf("wal: compact: %w", err)
	}
	// An atomic replace is not durable until the directory entry is: a
	// crash here could resurrect the old name order on some filesystems.
	// The snapshot must be durably in place before history is retired.
	if err := j.fs.SyncDir(j.dir); err != nil {
		j.ioError("dirsync", err)
		return fmt.Errorf("wal: compact dir sync: %w", err)
	}

	// The snapshot is durable; retire the history it replaces. Failures
	// here are absorbed (an orphan old segment is harmless: replay of old
	// events followed by the snapshot converges on the snapshot) but
	// logged and counted — silent leaks hide failing disks.
	oldSeg := j.seg
	if cerr := j.f.Close(); cerr != nil {
		j.ioError("close", cerr)
	}
	segs, err := listSegments(j.fs, j.dir)
	if err == nil {
		for _, idx := range segs {
			if idx <= oldSeg {
				if rerr := j.fs.Remove(filepath.Join(j.dir, segmentName(idx))); rerr != nil {
					j.ioError("remove", rerr)
				}
			}
		}
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		j.ioError("dirsync", err)
	}

	j.seg, j.segSize, j.total, j.dirty = newIdx, int64(len(buf)), int64(len(buf)), false
	if j.f, err = j.fs.OpenFile(newPath, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		// No usable fd: the journal is fail-stopped until Recover reopens.
		j.f = nil
		j.failStopLocked("reopen", err)
		return fmt.Errorf("wal: compact reopen: %w", err)
	}
	return nil
}

// Close stops a pending interval flush, syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.flush != nil {
		j.flush.Stop()
		j.flush = nil
	}
	if j.f == nil {
		return nil
	}
	var serr error
	if j.failed == nil {
		serr = j.f.Sync()
	}
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("wal: close sync: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}
