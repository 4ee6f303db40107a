package rng

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"
)

// JitterFactor returns a deterministic multiplier in [1-spread, 1+spread)
// derived from the FNV-1a hash of "key/seq". Retry loops, heartbeats, and
// backoff schedules all need jitter to avoid thundering herds, but this
// codebase's tests replay whole failure scenarios byte-for-byte — so the
// jitter must be a pure function of who is waiting (key) and how many
// times they have waited (seq), never of wall-clock entropy.
//
// The quantisation to 1024 steps keeps the factor reproducible across
// platforms (no float accumulation ordering) and is plenty of spread for
// de-synchronising fleets.
func JitterFactor(spread float64, key string, seq uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key, seq)
	return 1 - spread + 2*spread*float64(h.Sum64()%1024)/1024
}

// Jitter scales d by JitterFactor(spread, key, seq). spread 0.5 yields
// delays in [d/2, 3d/2) — the classic "equal jitter" band used by the
// dist client and the service retry loop; spread 0.2 yields the ±20%
// band heartbeat senders use.
func Jitter(d time.Duration, spread float64, key string, seq uint64) time.Duration {
	return time.Duration(float64(d) * JitterFactor(spread, key, seq))
}

// Backoff is the wait before retry number attempt (1-based): base doubled
// per retry, capped at ceiling (an overflowed shift is capped too), then
// spread by Jitter over [d/2, 3d/2) from key and attempt. The service's
// job retries and the coordinator's worker requests both use it.
func Backoff(base, ceiling time.Duration, key string, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 || d > ceiling {
		d = ceiling
	}
	return Jitter(d, 0.5, key, uint64(attempt))
}

// Sleep waits out d; false means ctx ended first.
func Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
