package service

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/trace"
	"github.com/metascreen/metascreen/internal/wal"
)

// The debug surface, on its own listener (vsserved -debug-addr):
// /debug/pprof/..., /debug/vars (expvar) and /debug/snapshot — stats,
// per-device busy seconds over all job traces, the latest warm-up factors
// and the runner's part (a coordinator's workers); the snapshot is also on
// the API port.

// DebugHandler returns the debug mux. Mount it on its own listener; the
// pprof endpoints can stall a request for seconds (CPU profiles) and must
// not share the API's connection budget.
func (s *Service) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/snapshot", s.handleDebugSnapshot)
	return mux
}

// DeviceBusy is one device track's accumulated busy time in a snapshot.
type DeviceBusy struct {
	Track       string  `json:"track"`
	BusySeconds float64 `json:"busy_seconds"`
}

// DebugSnapshot is the /debug/snapshot payload.
type DebugSnapshot struct {
	Stats         Stats   `json:"stats"`
	Jobs          int     `json:"jobs"`
	Goroutines    int     `json:"goroutines"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// DeviceBusy aggregates simulated device busy time per track over
	// every job trace held in memory, sorted by track name.
	DeviceBusy []DeviceBusy `json:"device_busy,omitempty"`
	// WarmupFactors are the most recent warm-up Percent factors (the
	// paper's equation 1) a finished job's backend reported, per kernel.
	WarmupFactors map[string][]float64 `json:"warmup_factors,omitempty"`
	// Admission is the overload-protection state: limiter window and
	// occupancy, breaker position, and the EWMA estimates behind deadline
	// shedding.
	Admission admission.Snapshot `json:"admission"`
	// Shed counts overload rejections and culls by reason.
	Shed map[string]int64 `json:"shed,omitempty"`
	// Storage reports the durability layer's degraded-mode state.
	Storage wal.Status `json:"storage"`
	// Workers is a distributed runner's membership.
	Workers any `json:"workers,omitempty"`
}

// Snapshot builds the debug snapshot.
func (s *Service) DebugSnapshot() DebugSnapshot {
	st := s.Stats()
	s.mu.Lock()
	recs := make([]*trace.Recorder, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.rec != nil {
			recs = append(recs, j.rec)
		}
	}
	warm := s.lastWarmup
	started := s.started
	jobs := len(s.jobs)
	storage := s.journal.Status()
	var snap DebugSnapshot
	s.runner.Debug(&snap)
	s.mu.Unlock()

	busy := map[string]float64{}
	for _, r := range recs {
		for track, b := range r.BusyByTrack(trace.CatDevice) {
			busy[track] += b
		}
	}
	snap.Stats = st
	snap.Jobs = jobs
	snap.Goroutines = runtime.NumGoroutine()
	snap.UptimeSeconds = s.now().Sub(started).Seconds()
	snap.WarmupFactors = warm
	snap.Admission = s.ctrl.Snapshot()
	snap.Shed = s.metrics.ShedCounts()
	snap.Storage = storage
	for track, b := range busy {
		snap.DeviceBusy = append(snap.DeviceBusy, DeviceBusy{Track: track, BusySeconds: b})
	}
	sort.Slice(snap.DeviceBusy, func(a, b int) bool {
		return snap.DeviceBusy[a].Track < snap.DeviceBusy[b].Track
	})
	return snap
}

func (s *Service) handleDebugSnapshot(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.DebugSnapshot())
}
