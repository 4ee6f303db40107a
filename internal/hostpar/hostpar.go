// Package hostpar is the host-side parallel runtime of metascreen, the Go
// analogue of the OpenMP parallel-for the paper uses: a loop over a fixed
// thread team with static or dynamic scheduling. The paper's one host
// thread per GPU has no counterpart here: the simulator (package sched)
// steps its devices in a loop.
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

// ForChunk runs body(lo, hi, tid) over contiguous chunks covering [0, n).
// With Static scheduling each thread gets one balanced chunk; with Dynamic,
// chunks of the given size (0 means a heuristic n/(8*threads), minimum 1)
// are claimed from a shared counter. Every index is processed exactly once.
func (t *Team) ForChunk(n int, sched Schedule, chunkParam int, body func(lo, hi, tid int)) {
	if n <= 0 {
		return
	}
	// threads and chunk are initialized exactly once and never reassigned:
	// the worker closures below capture them, and a reassigned captured
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
	var wg sync.WaitGroup
	var work func(tid int)
	switch sched {
	case Static:
		work = func(tid int) {
			defer wg.Done()
			if lo, hi := n*tid/threads, n*(tid+1)/threads; lo < hi {
				body(lo, hi, tid)
			}
		}
	case Dynamic:
		var next atomic.Int64
		work = func(tid int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				body(lo, min(lo+chunk, n), tid)
			}
		}
	default:
		panic("hostpar: unknown schedule")
	}
	wg.Add(threads)
	for tid := range threads {
		go work(tid)
	}
	wg.Wait()
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
