package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"github.com/metascreen/metascreen/internal/rng"
)

// RegisterLoop is the worker side of membership: it POSTs the worker's
// advertised URL to the coordinator's /v1/workers every interval until
// ctx ends. Registration and heartbeat are one upsert, so a restart on
// either side converges on the next beat; failures are logged and
// retried on the normal cadence. Beats are jittered ±20%, from the URL and
// beat count, so workers started or revived together do not beat in step.
func RegisterLoop(ctx context.Context, coordinator, advertise string, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cl := &client{hc: &http.Client{}, timeout: interval, attempts: 1, respLimit: 64 << 10}
	body, _ := json.Marshal(map[string]string{"url": advertise})
	beat := func() {
		if err := cl.do(ctx, http.MethodPost, coordinator+"/v1/workers", body, "", 0, nil); err != nil {
			logf("dist: heartbeat to %s failed: %v", coordinator, err)
		}
	}
	beat()
	t := time.NewTimer(beatJitter(interval, advertise, 0))
	defer t.Stop()
	for n := uint64(1); ; n++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
			t.Reset(beatJitter(interval, advertise, n))
		}
	}
}

// beatJitter spreads one heartbeat wait into [0.8, 1.2) × interval:
// reproducible without a global RNG, different per worker and per beat.
func beatJitter(interval time.Duration, advertise string, n uint64) time.Duration {
	return rng.Jitter(interval, 0.2, advertise, n)
}
