package fsim

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"syscall"

	"github.com/metascreen/metascreen/internal/rng"
)

// ErrCrashed is the sentinel a crash@opN rule injects: the simulated
// machine lost power — every file keeps what it held at its last
// successful Sync, nothing further lands. errors.Is(err, ErrCrashed)
// identifies it through the wrapping InjectedError.
var ErrCrashed = fmt.Errorf("fsim: simulated power loss (writes halted)")

// InjectedError is one fault delivered instead of a successful
// operation. It unwraps to the errno-level sentinel the fault models
// (syscall.EIO, syscall.ENOSPC or ErrCrashed) so errors.Is-based
// classification treats injected faults exactly like real ones.
type InjectedError struct {
	Kind Kind
	Op   string // operation that faulted: "write", "sync", "rename", ...
	Path string
	Err  error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fsim: injected %s on %s %s: %v", e.Kind, e.Op, e.Path, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// Decision is one injected fault, in admission order. With the same
// seed, plan and operation sequence the decision log is identical run to
// run — the replay contract the crash-point explorer and postmortems
// rely on.
type Decision struct {
	Op   string
	Path string
	Kind Kind
	Seq  uint64 // per-path operation ordinal (crash: global op index)
}

// maxDecisions bounds the in-memory decision log on long-running
// processes; past it, new decisions are counted but not stored.
const maxDecisions = 65536

// Config tunes a Faulty filesystem.
type Config struct {
	// Seed drives every probabilistic decision. Decisions are a pure
	// function of (seed, path, per-path op ordinal, rule position), so
	// they do not depend on goroutine interleaving.
	Seed uint64
	// Base performs the real operations; nil = OSFS().
	Base FS
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// Faulty is a fault-injecting FS applying a Plan over a base filesystem.
// Rules apply in a fixed kind order per operation — crash, enospc, eio,
// fsync-fail, torn-write on the write path; eio then bitrot on the read
// path — so a plan combining kinds behaves the same in every run.
type Faulty struct {
	plan Plan
	cfg  Config
	base FS

	mu        sync.Mutex
	ord       map[string]uint64 // per-path operation ordinal, starting at 0
	ops       uint64            // global mutating-op counter, 1-based
	written   map[int]int64     // bytes consumed per enospc rule (plan index)
	crashed   bool              // a crash rule fired; all mutation halted
	decisions []Decision
	dropped   int64
	// synced is, per file opened for writing, its length at its last
	// successful Sync (at open, until then): what a crash keeps. It
	// follows the file across a Rename.
	synced map[string]int64
}

// New builds a Faulty applying plan over cfg.Base.
func New(plan Plan, cfg Config) *Faulty {
	base := cfg.Base
	if base == nil {
		base = OSFS()
	}
	return &Faulty{
		plan:    plan,
		cfg:     cfg,
		base:    base,
		ord:     make(map[string]uint64),
		written: make(map[int]int64),
		synced:  make(map[string]int64),
	}
}

// Decisions returns a copy of the fault log so far.
func (f *Faulty) Decisions() []Decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Decision(nil), f.decisions...)
}

// MutatingOps reports how many mutating operations (writes, syncs,
// renames, removes, truncates, creates, dir syncs) have been admitted.
// The crash-point explorer records a clean run's total and then replays
// it once per crash@opK, K in 1..MutatingOps().
func (f *Faulty) MutatingOps() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether a crash rule has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// FreeSpace simulates an operator freeing disk space: every enospc
// rule's byte budget is reset, so writes succeed again until it is
// consumed anew.
func (f *Faulty) FreeSpace() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.written = make(map[int]int64)
}

// record logs one injected fault. Caller holds f.mu.
func (f *Faulty) record(d Decision) {
	if len(f.decisions) < maxDecisions {
		f.decisions = append(f.decisions, d)
	} else {
		f.dropped++
	}
	if f.cfg.Logf != nil {
		f.cfg.Logf("fsim: %s on %s %s (op %d)", d.Kind, d.Op, d.Path, d.Seq)
	}
}

// lane derives the deterministic random source for one decision: a pure
// function of seed, path, per-path op ordinal and rule position, so
// concurrent operations on different paths cannot perturb each other's
// fault sequences.
func (f *Faulty) lane(path string, ord, ruleIdx uint64) *rng.Source {
	h := fnv.New64a()
	io.WriteString(h, path)
	return rng.New(f.cfg.Seed ^ h.Sum64()).Split(ord).Split(ruleIdx)
}

// inject builds and records one fault. Caller holds f.mu.
func (f *Faulty) inject(kind Kind, op, path string, seq uint64, errno error) error {
	f.record(Decision{Op: op, Path: path, Kind: kind, Seq: seq})
	return &InjectedError{Kind: kind, Op: op, Path: path, Err: errno}
}

// admit assigns the next per-path ordinal and, for mutating ops, the
// next global op index; it returns the crash fault if the plan says the
// machine has lost power. Caller holds f.mu.
func (f *Faulty) admit(op, path string, mutating bool) (ord uint64, err error) {
	ord = f.ord[path]
	f.ord[path] = ord + 1
	if !mutating {
		return ord, nil
	}
	f.ops++
	if f.crashed {
		return ord, f.inject(KindCrash, op, path, f.ops, ErrCrashed)
	}
	for _, r := range f.plan.Rules {
		if r.Kind == KindCrash && r.matches(path) && f.ops >= r.Op {
			f.crashed = true
			f.dropUnsyncedLocked()
			return ord, f.inject(KindCrash, op, path, f.ops, ErrCrashed)
		}
	}
	return ord, nil
}

// dropUnsyncedLocked is the power loss itself: every file loses the bytes
// it received after its last successful Sync, so a record whose fsync
// never happened is gone after the crash, as on a real disk. Caller holds
// f.mu.
func (f *Faulty) dropUnsyncedLocked() {
	for path, n := range f.synced {
		data, err := f.base.ReadFile(path)
		if err != nil || int64(len(data)) <= n {
			continue
		}
		if err := f.base.Truncate(path, n); err != nil && f.cfg.Logf != nil {
			f.cfg.Logf("fsim: dropping unsynced bytes of %s: %v", path, err)
		}
	}
}

// syncedShrinkLocked records a truncation: bytes cut off are not kept by
// a crash either. Caller holds f.mu.
func (f *Faulty) syncedShrinkLocked(path string, size int64) {
	if n, ok := f.synced[path]; ok && size < n {
		f.synced[path] = size
	}
}

// roll evaluates the probabilistic rules of one kind against an
// operation; on a hit it returns the decision's lane (positioned after
// the decision draw, so faults needing extra randomness — a torn write's
// cut, a bitrot position — continue the same deterministic stream) and
// true. Caller holds f.mu.
func (f *Faulty) roll(kind Kind, path string, ord uint64) (*rng.Source, bool) {
	for i, r := range f.plan.Rules {
		if r.Kind != kind || !r.matches(path) {
			continue
		}
		lane := f.lane(path, ord, uint64(i))
		if lane.Float64() < r.Rate {
			return lane, true
		}
	}
	return nil, false
}

// chargeENOSPC consumes n bytes from every matching enospc budget; if
// any is exhausted the write fails disk-full. Caller holds f.mu.
func (f *Faulty) chargeENOSPC(op, path string, ord uint64, n int) error {
	for i, r := range f.plan.Rules {
		if r.Kind != KindENOSPC || !r.matches(path) {
			continue
		}
		if f.written[i]+int64(n) > r.After {
			return f.inject(KindENOSPC, op, path, ord, syscall.ENOSPC)
		}
		f.written[i] += int64(n)
	}
	return nil
}

// writeFlags reports whether an OpenFile flag set can mutate the file.
func writeFlags(flag int) bool {
	return flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_APPEND|os.O_TRUNC) != 0
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	_, err := f.admit("mkdir", path, true)
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *Faulty) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.admit("open", path, writeFlags(flag)); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	if _, tracked := f.synced[path]; writeFlags(flag) && !tracked {
		if st, err := file.Stat(); err == nil {
			f.synced[path] = st.Size()
		}
	}
	return &faultyFile{fs: f, path: path, f: file}, nil
}

func (f *Faulty) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	ord, _ := f.admit("read", path, false)
	if _, hit := f.roll(KindEIO, path, ord); hit {
		err := f.inject(KindEIO, "read", path, ord, syscall.EIO)
		f.mu.Unlock()
		return nil, err
	}
	f.mu.Unlock()
	data, err := f.base.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if lane, hit := f.roll(KindBitrot, path, ord); hit && len(data) > 0 {
		bit := lane.Uint64() % uint64(len(data)*8)
		data[bit/8] ^= 1 << (bit % 8)
		f.record(Decision{Op: "read", Path: path, Kind: KindBitrot, Seq: ord})
	}
	return data, nil
}

func (f *Faulty) ReadDir(path string) ([]os.DirEntry, error) { return f.base.ReadDir(path) }
func (f *Faulty) Glob(pattern string) ([]string, error)      { return f.base.Glob(pattern) }

func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord, err := f.admit("rename", newpath, true)
	if err == nil {
		if _, hit := f.roll(KindEIO, newpath, ord); hit {
			err = f.inject(KindEIO, "rename", newpath, ord, syscall.EIO)
		}
	}
	if err == nil {
		err = f.base.Rename(oldpath, newpath)
	}
	if err != nil {
		return err
	}
	if n, ok := f.synced[oldpath]; ok {
		f.synced[newpath] = n
	} else {
		delete(f.synced, newpath)
	}
	delete(f.synced, oldpath)
	return nil
}

func (f *Faulty) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord, err := f.admit("remove", path, true)
	if err == nil {
		if _, hit := f.roll(KindEIO, path, ord); hit {
			err = f.inject(KindEIO, "remove", path, ord, syscall.EIO)
		}
	}
	if err == nil {
		err = f.base.Remove(path)
	}
	if err != nil {
		return err
	}
	delete(f.synced, path)
	return nil
}

func (f *Faulty) Truncate(path string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord, err := f.admit("truncate", path, true)
	if err == nil {
		if _, hit := f.roll(KindEIO, path, ord); hit {
			err = f.inject(KindEIO, "truncate", path, ord, syscall.EIO)
		}
	}
	if err == nil {
		err = f.base.Truncate(path, size)
	}
	if err != nil {
		return err
	}
	f.syncedShrinkLocked(path, size)
	return nil
}

func (f *Faulty) SyncDir(dir string) error {
	f.mu.Lock()
	ord, err := f.admit("dirsync", dir, true)
	if err == nil {
		if _, hit := f.roll(KindFsyncFail, dir, ord); hit {
			err = f.inject(KindFsyncFail, "dirsync", dir, ord, syscall.EIO)
		}
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// faultyFile wraps one open file, applying the write-path rules.
type faultyFile struct {
	fs   *Faulty
	path string
	f    File
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ord, err := fs.admit("write", ff.path, true)
	if err != nil {
		return 0, err
	}
	if err := fs.chargeENOSPC("write", ff.path, ord, len(p)); err != nil {
		return 0, err
	}
	if _, hit := fs.roll(KindEIO, ff.path, ord); hit {
		return 0, fs.inject(KindEIO, "write", ff.path, ord, syscall.EIO)
	}
	if lane, hit := fs.roll(KindTornWrite, ff.path, ord); hit && len(p) > 0 {
		// Persist a deterministic prefix — the on-disk tail a real torn
		// write leaves — and report the write failed.
		torn := int(lane.Uint64() % uint64(len(p)))
		fs.record(Decision{Op: "write", Path: ff.path, Kind: KindTornWrite, Seq: ord})
		n, _ := ff.f.Write(p[:torn])
		return n, &InjectedError{Kind: KindTornWrite, Op: "write", Path: ff.path, Err: syscall.EIO}
	}
	// The bytes land under the lock, so a crash never misses them.
	return ff.f.Write(p)
}

// Sync holds the filesystem's lock across the real fsync, so a crash
// cannot land between the fsync and the synced length it records.
func (ff *faultyFile) Sync() error {
	fs := ff.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ord, err := fs.admit("sync", ff.path, true)
	if err == nil {
		if _, hit := fs.roll(KindFsyncFail, ff.path, ord); hit {
			err = fs.inject(KindFsyncFail, "sync", ff.path, ord, syscall.EIO)
		}
	}
	if err == nil {
		err = ff.f.Sync()
	}
	if err != nil {
		return err
	}
	if st, err := ff.f.Stat(); err == nil {
		fs.synced[ff.path] = st.Size()
	}
	return nil
}

func (ff *faultyFile) Truncate(size int64) error {
	fs := ff.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ord, err := fs.admit("truncate", ff.path, true)
	if err == nil {
		if _, hit := fs.roll(KindEIO, ff.path, ord); hit {
			err = fs.inject(KindEIO, "truncate", ff.path, ord, syscall.EIO)
		}
	}
	if err == nil {
		err = ff.f.Truncate(size)
	}
	if err != nil {
		return err
	}
	fs.syncedShrinkLocked(ff.path, size)
	return nil
}

func (ff *faultyFile) Stat() (os.FileInfo, error) { return ff.f.Stat() }
func (ff *faultyFile) Close() error               { return ff.f.Close() }
