package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// settleCPU keeps every core busy until a fixed chunk of arithmetic takes
// the same time four times in a row, or maxWait passes. On this class of
// machine the first seconds of compute after an idle period run up to a
// quarter slower; without this prelude a run's numbers would depend on how
// long the machine sat idle before it. It returns how long it waited; the
// time is part of no metric.
func settleCPU(maxWait time.Duration) time.Duration {
	const chunk = 4_000_000 // about 20 ms of dependent multiply-adds
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	sink := 0.0
	// The other cores spin so the whole package leaves its idle state.
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0.0
			for {
				select {
				case <-stop:
					mu.Lock()
					sink += local
					mu.Unlock()
					return
				default:
					local += burn(chunk)
				}
			}
		}()
	}
	var recent []float64
	for time.Since(start) < maxWait {
		t0 := time.Now()
		mine := burn(chunk)
		recent = append(recent, time.Since(t0).Seconds())
		mu.Lock()
		sink += mine
		mu.Unlock()
		if n := len(recent); n >= 8 {
			last := recent[n-4:]
			lo, hi := last[0], last[0]
			for _, v := range last {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			// Steady, and no slower than the best chunk seen so far.
			best := recent[0]
			for _, v := range recent {
				best = math.Min(best, v)
			}
			if hi/lo < 1.03 && hi/best < 1.05 {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	probeSink += sink
	return time.Since(start)
}

// burn is a chain of dependent floating-point operations the compiler
// cannot shorten.
func burn(n int) float64 {
	x := 1.0000001
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}
