package main

import (
	"time"

	"github.com/metascreen/metascreen/internal/service"
)

// sizes fixes how much work each workload's unit does. Everything is sized
// for two cores and is deliberately not scaled by the machine's CPU count:
// a number is comparable only with numbers taken at the same sizes. How long
// a run measures comes from --seconds; how big one unit of work is comes
// from here. Self-tests swap in toySizes.
type sizes struct {
	// SettleMax caps the busy-wait before a run that brings the cores out
	// of their idle state (see settleCPU); 0 skips it.
	SettleMax time.Duration

	// SetupRepeats is how many times a run sets up to take the median.
	// In-process set-ups are cheap and noisy, so they repeat more often.
	SetupRepeatsInProc int
	SetupRepeatsProcs  int

	// Screens: one unit is one core.ScreenCtx call over ScreenLibrary
	// synthetic ligands against 2BSM with ScreenWorkers ligand workers.
	ScreenLibrary int
	ScreenSpots   int
	ScreenWorkers int
	M1Scale       float64
	M4Scale       float64
	// SliceLibrary and SliceScaleFactor size the short screens behind
	// core.parallel_efficiency and trace.recorder_overhead_pct.
	SliceLibrary     int
	SliceScaleFactor float64

	// Tables: one unit is one tables.Run pass over Tables; the traced run
	// replays TracedTables row by row instead (all four, so the Hertz 2BXG
	// rows that carry the paper's headline are checked).
	Tables       []int
	TracedTables []int
	TableScale   float64

	// SmallRequest is the job of service_open and dist_small.
	SmallRequest service.ScreenRequest
	// ServiceRate and DistSmallRate are open-loop arrival rates in jobs/s.
	ServiceRate   float64
	DistSmallRate float64
	WarmupJobs    int
	// SampledRankings is how many finished jobs are compared entry by entry
	// with an in-process screen of the same request.
	SampledRankings int
	// ClosedLoopSeconds and ClosedLoopClients size service.jobs_per_s_max.
	ClosedLoopSeconds float64
	ClosedLoopClients int
	// InProcJobs sizes the in-process service segment behind wal.*_per_job.
	InProcJobs int

	// LargeRequest is dist_large's screen; one unit is one such screen.
	LargeRequest service.ScreenRequest
	// SampledLigands is how many ligands of a dist_large ranking are
	// recomputed in process (seed lanes are keyed by ligand name, so a
	// ligand screened alone must score exactly as it did in the cluster).
	SampledLigands int

	// ProbeIters scales every micro-probe's iteration count.
	ProbeIters int
}

func defaultSizes() sizes {
	return sizes{
		SettleMax: 4 * time.Second,

		SetupRepeatsInProc: 5,
		SetupRepeatsProcs:  3,

		ScreenLibrary:    4,
		ScreenSpots:      4,
		ScreenWorkers:    2,
		M1Scale:          0.5,
		M4Scale:          0.05,
		SliceLibrary:     4,
		SliceScaleFactor: 0.5,

		Tables:       []int{6, 8},
		TracedTables: []int{6, 7, 8, 9},
		TableScale:   1.0,

		SmallRequest:      service.ScreenRequest{Dataset: "2BSM", Library: 4, Spots: 2, Metaheuristic: "M3", Scale: 0.02},
		ServiceRate:       40,
		DistSmallRate:     8,
		WarmupJobs:        8,
		SampledRankings:   10,
		ClosedLoopSeconds: 3,
		ClosedLoopClients: 4,
		InProcJobs:        100,

		LargeRequest:   service.ScreenRequest{Dataset: "2BSM", Library: 384, Spots: 4, Metaheuristic: "M1", Scale: 0.05},
		SampledLigands: 8,

		ProbeIters: 2000,
	}
}

// toySizes shrinks every unit so each workload function runs in well under
// a second inside the tier-1 tests.
func toySizes() sizes {
	s := defaultSizes()
	s.SettleMax = 0
	s.SetupRepeatsInProc, s.SetupRepeatsProcs = 1, 1
	s.ScreenLibrary, s.ScreenSpots = 2, 2
	s.M1Scale, s.M4Scale = 0.05, 0.01
	s.SliceLibrary = 2
	s.Tables, s.TracedTables = []int{8}, []int{6, 8}
	s.TableScale = 0.05
	s.ServiceRate, s.DistSmallRate = 40, 20
	s.WarmupJobs, s.SampledRankings = 1, 2
	s.ClosedLoopSeconds, s.ClosedLoopClients = 0.1, 2
	s.InProcJobs = 4
	s.LargeRequest.Library, s.LargeRequest.Scale = 8, 0.02
	s.SampledLigands = 2
	s.ProbeIters = 20
	return s
}
