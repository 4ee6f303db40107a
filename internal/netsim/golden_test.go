package netsim_test

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/replay.golden from this build")

type stubRT struct{}

func (stubRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("")), Header: make(http.Header)}, nil
}

// TestReplayGolden pins the decision log of a fixed plan at two seeds to
// bytes recorded by an earlier build, so a change to the decision lane
// (seed × FNV-64a(target) × request ordinal × rule position) or to the
// order rules are consulted in shows up as a diff, not just as a
// run-to-run difference. Regenerate with -update only when a change to
// the decisions is intended.
func TestReplayGolden(t *testing.T) {
	const spec = "w1:80:latency@1ms±1ms,w1:80:error@0.3,*:dup@0.25,w2:80:error@0.2,w2:80:latency@500µs±500µs"
	plan, err := netsim.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, seed := range []uint64{7, 2016} {
		tr := netsim.New(plan, netsim.Config{
			Seed:  seed,
			Base:  stubRT{},
			Clock: func() time.Duration { return 0 },
		})
		for i := 0; i < 120; i++ {
			url := "http://w1:80/x"
			if i%3 == 0 {
				url = "http://w2:80/x"
			}
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := tr.RoundTrip(req); err == nil {
				resp.Body.Close()
			}
		}
		fmt.Fprintf(&b, "seed %d\n", seed)
		for _, d := range tr.Decisions() {
			fmt.Fprintf(&b, "%s %s %d %d\n", d.Target, d.Kind, d.Seq, int64(d.Delay))
		}
	}
	golden := filepath.Join("testdata", "replay.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("decision log drifted from %s at line %d: got %q, want %q", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("decision log drifted from %s: %d lines, want %d", golden, len(g), len(w))
	}
}
