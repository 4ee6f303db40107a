package netsim

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/faultplan"
)

// InjectedError is a fault delivered instead of a response. It satisfies
// net.Error's shape (Timeout/Temporary) so error-classification code
// treats injected faults like the real transport failures they model:
// partitions look like refused connections, errors like flaky links.
type InjectedError struct {
	Kind   string
	Target string
	Seq    uint64 // per-target request ordinal the fault hit
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("netsim: injected %s on %s (request %d)", e.Kind, e.Target, e.Seq)
}

func (e *InjectedError) Timeout() bool   { return false }
func (e *InjectedError) Temporary() bool { return true }

// Decision is one fault the transport injected, in the order requests
// were admitted. With the same seed, plan and request sequence the
// decision log is identical run to run — the replay contract tests and
// postmortems rely on.
type Decision struct {
	Target string
	Kind   string
	Seq    uint64        // per-target request ordinal, starting at 0
	Delay  time.Duration // latency decisions: the injected delay
}

// String is the decision's log line.
func (d Decision) String() string {
	return fmt.Sprintf("netsim: %s on %s (request %d, delay %v)", d.Kind, d.Target, d.Seq, d.Delay)
}

// Config tunes a Transport.
type Config struct {
	// Seed drives every probabilistic decision. Decisions are a pure
	// function of (seed, target, per-target request ordinal), so they do
	// not depend on goroutine interleaving.
	Seed uint64
	// Base performs the real requests; nil = http.DefaultTransport.
	Base http.RoundTripper
	// Clock returns elapsed plan time. nil = wall time since the
	// transport's first request, which anchors time-windowed faults
	// (hang@T, partition@T+D) to the start of real traffic.
	Clock func() time.Duration
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// Transport is a fault-injecting http.RoundTripper. Rules apply in a
// fixed kind order per request — partition, hang, error, latency, dup —
// so a plan combining kinds behaves the same in every run.
type Transport struct {
	plan Plan
	cfg  Config
	base http.RoundTripper

	startOnce sync.Once
	start     time.Time

	mu  sync.Mutex
	seq map[string]uint64
	log faultplan.Log[Decision]
}

// New builds a Transport injecting plan over cfg.Base.
func New(plan Plan, cfg Config) *Transport {
	base := cfg.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{plan: plan, cfg: cfg, base: base, seq: make(map[string]uint64),
		log: faultplan.Log[Decision]{Logf: cfg.Logf}}
}

// Decisions returns a copy of the fault log so far.
func (t *Transport) Decisions() []Decision { return t.log.Decisions() }

// elapsed is the plan clock: injected, or wall time since first request.
func (t *Transport) elapsed() time.Duration {
	if t.cfg.Clock != nil {
		return t.cfg.Clock()
	}
	t.startOnce.Do(func() { t.start = time.Now() })
	return time.Since(t.start)
}

// next admits a request to a target and returns its per-target ordinal.
func (t *Transport) next(target string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq[target]
	t.seq[target] = n + 1
	return n
}

// draw is one rule's decision draw for one request, in [0,1).
func (t *Transport) draw(target string, seq, rule uint64) float64 {
	return faultplan.Lane(t.cfg.Seed, target, seq, rule).Float64()
}

// RoundTrip applies the plan's matching rules to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	target := req.URL.Host
	var rules []Rule
	var idx []uint64 // plan positions, the per-rule decision lanes
	for i, r := range t.plan.Rules {
		if r.Target == "*" || r.Target == target {
			rules = append(rules, r)
			idx = append(idx, uint64(i))
		}
	}
	if len(rules) == 0 {
		return t.base.RoundTrip(req)
	}
	seq := t.next(target)
	now := t.elapsed()

	// Partition: fail fast inside the window, like a refused connection.
	for _, r := range rules {
		if r.Kind == KindPartition && now >= r.Value.At && (r.Value.Dur == 0 || now < r.Value.At+r.Value.Dur) {
			t.log.Record(Decision{Target: target, Kind: KindPartition, Seq: seq})
			return nil, &InjectedError{Kind: KindPartition, Target: target, Seq: seq}
		}
	}
	// Hang: blackhole — the request never completes; only the caller's
	// context deadline gets it back. This is the fault that exposes
	// clients built without per-request timeouts.
	for _, r := range rules {
		if r.Kind == KindHang && now >= r.Value.At {
			t.log.Record(Decision{Target: target, Kind: KindHang, Seq: seq})
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
	}
	// Error: probabilistic transport failure.
	for i, r := range rules {
		if r.Kind == KindError && t.draw(target, seq, idx[i]) < r.Value.Rate {
			t.log.Record(Decision{Target: target, Kind: KindError, Seq: seq})
			return nil, &InjectedError{Kind: KindError, Target: target, Seq: seq}
		}
	}
	// Latency: delay the request, respecting its context.
	for i, r := range rules {
		if r.Kind != KindLatency {
			continue
		}
		d := r.Value.Base
		if r.Value.Jitter > 0 {
			f := t.draw(target, seq, idx[i])
			d += time.Duration((2*f - 1) * float64(r.Value.Jitter))
		}
		if d <= 0 {
			continue
		}
		t.log.Record(Decision{Target: target, Kind: KindLatency, Seq: seq, Delay: d})
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	// Dup: deliver the request twice — the extra delivery's response is
	// drained and discarded, the second is returned, modeling a network
	// that re-sends a request whose response was lost. Only requests
	// whose body can be replayed (no body, or GetBody set) duplicate.
	for i, r := range rules {
		if r.Kind != KindDup || t.draw(target, seq, idx[i]) >= r.Value.Rate {
			continue
		}
		if req.Body != nil && req.GetBody == nil {
			break
		}
		first := req.Clone(req.Context())
		if req.GetBody != nil {
			b, err := req.GetBody()
			if err != nil {
				break
			}
			first.Body = b
		}
		t.log.Record(Decision{Target: target, Kind: KindDup, Seq: seq})
		if resp, err := t.base.RoundTrip(first); err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		if req.GetBody != nil {
			b, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			req.Body = b
		}
		break
	}
	return t.base.RoundTrip(req)
}
