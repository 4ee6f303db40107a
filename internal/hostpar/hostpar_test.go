package hostpar

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8, 16} {
		team := NewTeam(threads)
		const n = 1000
		var hits [n]atomic.Int32
		team.ForChunk(n, Static, 0, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, got)
			}
		}
	}
}

func TestForChunkDynamicCoversAllIndices(t *testing.T) {
	team := NewTeam(4)
	const n = 997 // prime, exercises ragged chunks
	var hits [n]atomic.Int32
	team.ForChunk(n, Dynamic, 13, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestForChunkStaticBalanced(t *testing.T) {
	team := NewTeam(4)
	sizes := make([]int, 4)
	team.ForChunk(100, Static, 0, func(lo, hi, tid int) { sizes[tid] = hi - lo })
	for tid, s := range sizes {
		if s != 25 {
			t.Errorf("thread %d got %d iterations, want 25", tid, s)
		}
	}
}

func TestForChunkMoreThreadsThanWork(t *testing.T) {
	team := NewTeam(16)
	var count atomic.Int32
	team.ForChunk(3, Static, 0, func(lo, hi, _ int) {
		count.Add(int32(hi - lo))
	})
	if count.Load() != 3 {
		t.Errorf("covered %d iterations, want 3", count.Load())
	}
}

func TestForZeroAndNegative(t *testing.T) {
	team := NewTeam(4)
	called := false
	for _, sched := range []Schedule{Static, Dynamic} {
		team.ForChunk(0, sched, 0, func(int, int, int) { called = true })
		team.ForChunk(-5, sched, 0, func(int, int, int) { called = true })
	}
	if called {
		t.Error("body called for empty range")
	}
}

func TestNewTeamDefaults(t *testing.T) {
	if NewTeam(0).Size() != DefaultThreads() {
		t.Error("NewTeam(0) != default size")
	}
	if NewTeam(-1).Size() != DefaultThreads() {
		t.Error("NewTeam(-1) != default size")
	}
	if NewTeam(5).Size() != 5 {
		t.Error("NewTeam(5) size wrong")
	}
}

func TestParallelSumMatchesSerial(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			// Bound magnitudes: float addition is only approximately
			// associative, and this property tests coverage, not FP error.
			vals[i] = math.Mod(v, 1e6)
		}
		serial := 0.0
		for _, v := range vals {
			serial += v
		}
		partial := make([]float64, 4)
		NewTeam(4).ForChunk(len(vals), Static, 0, func(lo, hi, tid int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			partial[tid] = s
		})
		par := 0.0
		for _, v := range partial {
			par += v
		}
		return math.Abs(par-serial) <= 1e-9*(1+math.Abs(serial))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForChunkUnknownSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown schedule")
		}
	}()
	NewTeam(2).ForChunk(10, Schedule(99), 0, func(lo, hi, tid int) {})
}
