package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/service"
)

// client is the coordinator's HTTP client for worker nodes, which speak
// the plain vsserved API. Chunk submissions carry the Idempotency-Key
// "<job>/<chunk>", so a re-dispatch maps onto the worker's running job,
// and chunk requests carry the worker's registration epoch
// (service.EpochHeader), which the worker echoes back: the fence against
// zombies. Every request runs under a per-request timeout, so a
// blackholed worker costs at most timeout × attempts; transient failures
// (transport errors, timeouts, 408/429/5xx) are retried with jittered
// exponential backoff, any other 4xx surfaces at once.
type client struct {
	hc        *http.Client
	timeout   time.Duration // per-request deadline; 0 = no extra deadline
	attempts  int           // total tries per request (>= 1)
	backoff   time.Duration // base retry delay, doubled per retry
	respLimit int64         // response read cap in bytes
	onRetry   func()        // metrics hook, called once per retry
}

// maxClientBackoff caps one retry sleep so attempt budgets stay
// predictable even after several doublings.
const maxClientBackoff = 2 * time.Second

// apiError is a non-2xx response, decoded from the service's
// {"error": "..."} body when possible. retryAfter carries the server's
// Retry-After hint (429/503 shedding responses) so the retry loop can
// wait exactly as long as the server asked instead of guessing.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("worker: %s (HTTP %d)", e.msg, e.status)
	}
	return "worker: HTTP " + strconv.Itoa(e.status)
}

// retriableError marks a failure worth another attempt: the request may
// never have reached the worker, or the worker may recover.
type retriableError struct{ err error }

func (e *retriableError) Error() string { return e.err.Error() }
func (e *retriableError) Unwrap() error { return e.err }

// retriable reports whether an error is marked transient.
func retriable(err error) bool {
	var re *retriableError
	return errors.As(err, &re)
}

// do runs one logical request with retries. body may be nil; epoch > 0
// tags the request for fencing. The decoded 2xx body lands in out.
func (c *client) do(ctx context.Context, method, url string, body []byte, key string, epoch uint64, out any) error {
	for attempt := 1; ; attempt++ {
		err := c.once(ctx, method, url, body, key, epoch, out)
		if err == nil {
			return nil
		}
		if !retriable(err) || attempt >= c.attempts || ctx.Err() != nil {
			return err
		}
		if c.onRetry != nil {
			c.onRetry()
		}
		if !rng.Sleep(ctx, c.retryDelay(err, url, attempt)) {
			return err
		}
	}
}

// once performs a single attempt under the per-request timeout.
func (c *client) once(ctx context.Context, method, url string, body []byte, key string, epoch uint64, out any) error {
	rctx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	sentEpoch := ""
	if epoch > 0 {
		sentEpoch = strconv.FormatUint(epoch, 10)
		req.Header.Set(service.EpochHeader, sentEpoch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return err // the caller is gone; retrying is pointless
		}
		// Transport-level failures — refused connections, injected
		// partitions, per-request timeouts against a blackholed worker —
		// are all worth another try.
		return &retriableError{err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.respLimit+1))
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		return &retriableError{err}
	}
	if int64(len(data)) > c.respLimit {
		// Oversized responses repeat deterministically: fail loud instead
		// of truncating into a JSON parse error.
		return fmt.Errorf("dist: response from %s exceeds the %d-byte cap", url, c.respLimit)
	}
	if sentEpoch != "" {
		if echo := resp.Header.Get(service.EpochHeader); echo != "" && echo != sentEpoch {
			// The response answers a different epoch's request (a stale
			// duplicate, a confused proxy): never trust its body.
			return &retriableError{fmt.Errorf("dist: epoch echo mismatch from %s: sent %s, got %s", url, sentEpoch, echo)}
		}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e)
		apiErr := &apiError{
			status:     resp.StatusCode,
			msg:        e.Error,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		if resp.StatusCode == http.StatusRequestTimeout ||
			resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode >= 500 {
			return &retriableError{apiErr}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return &retriableError{err}
	}
	return nil
}

// retryDelay picks the sleep before retry `attempt`. A server that said
// how long it wants to be left alone (Retry-After on a 429/503 shed
// response) is believed, clamped to the backoff cap; otherwise the usual
// jittered exponential backoff applies.
func (c *client) retryDelay(err error, url string, attempt int) time.Duration {
	var ae *apiError
	if errors.As(err, &ae) && ae.retryAfter > 0 {
		if ae.retryAfter > maxClientBackoff {
			return maxClientBackoff
		}
		return ae.retryAfter
	}
	return rng.Backoff(c.backoff, maxClientBackoff, url, attempt)
}

// parseRetryAfter reads a Retry-After header in its delay-seconds form
// (the only form the service emits). Malformed or negative values are
// ignored rather than trusted.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// submit posts a shard screen to a worker under the given idempotency
// key and fencing epoch. Both 202 (new) and 200 (the worker had already
// admitted this key) succeed and return the worker-side job.
func (c *client) submit(ctx context.Context, base string, req service.ScreenRequest, key string, epoch uint64) (service.JobView, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return service.JobView{}, err
	}
	var view service.JobView
	err = c.do(ctx, http.MethodPost, base+"/v1/screens", b, key, epoch, &view)
	return view, err
}

// partial long-polls a worker-side job for the completed ligands past the
// since cursor ("" = from the start), held up to wait. A worker that
// ignores both answers at once with everything, which the merge absorbs.
// The limit is the service's maximum, so one poll drains a chunk.
func (c *client) partial(ctx context.Context, base, id string, epoch uint64, since string, wait time.Duration) (service.PartialView, error) {
	u := base + "/v1/screens/" + id + "/partial?limit=" + strconv.Itoa(service.MaxRankingLimit) +
		"&since=" + url.QueryEscape(since) + "&wait=" + wait.String()
	var pv service.PartialView
	err := c.do(ctx, http.MethodGet, u, nil, "", epoch, &pv)
	return pv, err
}

// cancel asks a worker to cancel a job. Already-terminal (409) and
// unknown (404) jobs are fine — the goal state is "not running".
func (c *client) cancel(ctx context.Context, base, id string) error {
	err := c.do(ctx, http.MethodDelete, base+"/v1/screens/"+id, nil, "", 0, nil)
	var ae *apiError
	if errors.As(err, &ae) && (ae.status == http.StatusConflict || ae.status == http.StatusNotFound) {
		return nil
	}
	return err
}
