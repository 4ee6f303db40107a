package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
)

// The three wrappers the traced run hands the program through seams it
// already exposes: a timing core.Backend (through core.BackendFactory), a
// timing fsim.FS (through service.Config.FS) and a span-recording
// http.RoundTripper (through dist.Config.Transport). None changes what the
// wrapped value computes.

// backendTimes accumulates what the backends of one screen did, across
// ligands and goroutines.
type backendTimes struct {
	scoreNs, improveNs, buildNs atomic.Int64
	builds                      atomic.Int64
	ligandNs                    atomic.Int64 // factory call -> last backend call, summed over ligands

	mu       sync.Mutex
	backends []*timedBackend
}

// timedBackend times every call the engine makes into a backend and records
// it as a span under the ligand's span.
type timedBackend struct {
	core.Backend
	rec    *recorder
	agg    *backendTimes
	ligand int // ligand span ID
	job    string
	start  time.Time
	last   atomic.Int64 // unix nanos of the latest call's return
}

// timedFactory wraps a BackendFactory. Each ligand of a screen gets its own
// backend, so the factory call opens the ligand's span: it runs from here to
// the engine's last call into the backend.
func timedFactory(inner core.BackendFactory, rec *recorder, agg *backendTimes, job string, parent int) core.BackendFactory {
	return func(p *core.Problem) (core.Backend, error) {
		t0 := time.Now()
		ligand := rec.beginAt("core", "ligand "+p.Ligand.Name, job, parent, t0)
		b, err := inner(p)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		rec.add("core", "backend_build", job, ligand, t0, t1, 0)
		agg.buildNs.Add(t1.Sub(t0).Nanoseconds())
		agg.builds.Add(1)
		tb := &timedBackend{Backend: b, rec: rec, agg: agg, ligand: ligand, job: job, start: t0}
		tb.last.Store(t1.UnixNano())
		agg.mu.Lock()
		agg.backends = append(agg.backends, tb)
		agg.mu.Unlock()
		return tb, nil
	}
}

// closeLigands ends every ligand span at its backend's last call and folds
// the ligand durations into the totals. Call it once the screen returned.
func (agg *backendTimes) closeLigands() {
	agg.mu.Lock()
	defer agg.mu.Unlock()
	for _, tb := range agg.backends {
		end := time.Unix(0, tb.last.Load())
		tb.rec.endAt(tb.ligand, end, 0)
		agg.ligandNs.Add(end.Sub(tb.start).Nanoseconds())
	}
	agg.backends = nil
}

func (b *timedBackend) ScoreBatch(confs []*conformation.Conformation) {
	t0 := time.Now()
	b.Backend.ScoreBatch(confs)
	t1 := time.Now()
	b.rec.add("forcefield", "ScoreBatch", b.job, b.ligand, t0, t1, 0)
	b.agg.scoreNs.Add(t1.Sub(t0).Nanoseconds())
	b.last.Store(t1.UnixNano())
}

func (b *timedBackend) ImproveBatch(items []core.ImproveItem, moves int, scale conformation.MoveScale) {
	t0 := time.Now()
	b.Backend.ImproveBatch(items, moves, scale)
	t1 := time.Now()
	b.rec.add("forcefield", "ImproveBatch", b.job, b.ligand, t0, t1, 0)
	b.agg.improveNs.Add(t1.Sub(t0).Nanoseconds())
	b.last.Store(t1.UnixNano())
}

// The engine reads the clock and the counters when a run ends, which is what
// marks the end of the ligand's span.
func (b *timedBackend) SimTime() float64 {
	defer b.last.Store(time.Now().UnixNano())
	return b.Backend.SimTime()
}

func (b *timedBackend) Evaluations() int64 {
	defer b.last.Store(time.Now().UnixNano())
	return b.Backend.Evaluations()
}

// EnergyJoules and Err forward the optional interfaces the engine probes
// for, so wrapping does not change a Result.
func (b *timedBackend) EnergyJoules() float64 {
	if er, ok := b.Backend.(interface{ EnergyJoules() float64 }); ok {
		return er.EnergyJoules()
	}
	return 0
}

func (b *timedBackend) Err() error {
	if er, ok := b.Backend.(interface{ Err() error }); ok {
		return er.Err()
	}
	return nil
}

// fsTimes accumulates the durability I/O a service did.
type fsTimes struct {
	writeBytes    atomic.Int64
	syncs, syncNs atomic.Int64
}

// timedFS counts and times the writes and fsyncs that pass through an
// fsim.FS; everything else is forwarded untouched.
type timedFS struct {
	fsim.FS
	rec *recorder
	agg *fsTimes
}

func (t *timedFS) OpenFile(path string, flag int, perm os.FileMode) (fsim.File, error) {
	f, err := t.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := t.FS.SyncDir(dir)
	t1 := time.Now()
	t.rec.add("wal", "syncdir", "", 0, t0, t1, 0)
	t.agg.syncs.Add(1)
	t.agg.syncNs.Add(t1.Sub(t0).Nanoseconds())
	return err
}

type timedFile struct {
	fsim.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.agg.writeBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	f.fs.rec.add("wal", "fsync", "", 0, t0, t1, 0)
	f.fs.agg.syncs.Add(1)
	f.fs.agg.syncNs.Add(t1.Sub(t0).Nanoseconds())
	return err
}

// recordingTransport records one span per coordinator->worker request, named
// by what the request is for, with the response body's size.
type recordingTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

// requestKind names a coordinator->worker request.
func requestKind(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasSuffix(path, "/v1/screens"):
		return "dispatch"
	case method == http.MethodGet && strings.HasSuffix(path, "/partial"):
		return "poll"
	case method == http.MethodDelete:
		return "cancel"
	}
	return "other"
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	kind := requestKind(req.Method, req.URL.Path)
	if err != nil {
		t.rec.add("dist", kind+" error", req.URL.Host, 0, t0, time.Now(), 0)
		return nil, err
	}
	id := t.rec.beginAt("dist", kind, req.URL.Host, 0, t0)
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) { t.rec.endAt(id, time.Now(), n) }}
	return resp, nil
}

// countingBody closes the request's span when the caller is done with the
// body, so the span covers reading the partial, not just its headers.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}
