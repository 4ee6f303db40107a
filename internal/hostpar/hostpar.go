// Package hostpar is the host-side parallel runtime of metascreen, the Go
// analogue of the OpenMP constructs the paper uses: a parallel-for over a
// fixed thread team with static or dynamic scheduling, and a bare parallel
// region whose per-thread results the caller reduces (the paper reduces
// warm-up timings with omp reduction; sched takes that max in a loop).
package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Schedule selects how loop iterations map to threads.
type Schedule int

const (
	// Static splits the iteration space into one contiguous chunk per
	// thread, like OpenMP schedule(static).
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared counter as threads
	// finish, like OpenMP schedule(dynamic, chunk).
	Dynamic
)

// DefaultThreads is the thread-team size used when a Team is created with
// size <= 0: the number of usable CPUs.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Team is a fixed-size thread team, the analogue of an OpenMP parallel
// region's team. The zero value is not usable; create teams with NewTeam.
type Team struct {
	n int
}

// NewTeam returns a team of n threads; n <= 0 means DefaultThreads().
func NewTeam(n int) *Team {
	if n <= 0 {
		n = DefaultThreads()
	}
	return &Team{n: n}
}

// Size returns the number of threads in the team.
func (t *Team) Size() int { return t.n }

// ForThread runs body(tid) once on each of the team's threads, the analogue
// of a bare omp parallel region. tid ranges over [0, Size()).
func (t *Team) ForThread(body func(tid int)) {
	var wg sync.WaitGroup
	wg.Add(t.n)
	for tid := 0; tid < t.n; tid++ {
		go func(tid int) {
			defer wg.Done()
			body(tid)
		}(tid)
	}
	wg.Wait()
}

// ForChunk runs body(lo, hi, tid) over contiguous chunks covering [0, n).
// With Static scheduling each thread gets one balanced chunk; with Dynamic,
// chunks of the given size (0 means a heuristic n/(8*threads), minimum 1)
// are claimed from a shared counter. Every index is processed exactly once.
func (t *Team) ForChunk(n int, sched Schedule, chunkParam int, body func(lo, hi, tid int)) {
	if n <= 0 {
		return
	}
	// threads and chunk are initialized exactly once and never reassigned:
	// the goroutine closures below capture them, and a reassigned captured
	// variable is captured by reference, which would heap-allocate it on
	// every call — including the sequential fast path.
	threads := min(t.n, n)
	// A one-thread Static team runs inline: no goroutine spawn, no
	// WaitGroup, zero allocations — the sequential scoring hot loop relies
	// on this. Dynamic keeps its chunked claiming even with one thread, so
	// the schedule's chunk-size sequence stays observable.
	if threads == 1 && sched == Static {
		body(0, n, 0)
		return
	}
	chunk := effectiveChunk(chunkParam, n, threads, sched)
	switch sched {
	case Static:
		var wg sync.WaitGroup
		wg.Add(threads)
		for tid := 0; tid < threads; tid++ {
			go func(tid int) {
				defer wg.Done()
				lo := n * tid / threads
				hi := n * (tid + 1) / threads
				if lo < hi {
					body(lo, hi, tid)
				}
			}(tid)
		}
		wg.Wait()
	case Dynamic:
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(threads)
		for tid := 0; tid < threads; tid++ {
			go func(tid int) {
				defer wg.Done()
				for {
					lo := int(next.Add(int64(chunk))) - chunk
					if lo >= n {
						return
					}
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					body(lo, hi, tid)
				}
			}(tid)
		}
		wg.Wait()
	default:
		panic("hostpar: unknown schedule")
	}
}

// effectiveChunk resolves the chunk parameter for a schedule: Dynamic's
// zero value means the n/(8*threads) heuristic, floored at 1, and Static
// ignores it.
func effectiveChunk(chunk, n, threads int, sched Schedule) int {
	if sched == Dynamic && chunk <= 0 {
		chunk = n / (8 * threads)
	}
	return max(chunk, 1)
}
