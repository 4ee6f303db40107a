package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/service"
)

// TestRequestBodyLimit covers the three routes that decode a request
// body, on both roles: a body past service.MaxBodyBytes is refused with
// 413 and the usual {"error": ...} shape instead of being read to the
// end, and the largest valid request — a 10 000-name ligands shard — is
// still admitted.
func TestRequestBodyLimit(t *testing.T) {
	node := startWorker(t)
	// One coordinator per route: the one that takes the shard never gets a
	// worker, so the 10 000-ligand screen just waits for cleanup.
	screens := httptest.NewServer(startCoordinator(t, Config{}).Handler())
	defer screens.Close()
	members := httptest.NewServer(startCoordinator(t, Config{}).Handler())
	defer members.Close()

	shard := service.ScreenRequest{
		Dataset: "2BSM", Library: 10000, Spots: 1, Metaheuristic: "M3", Scale: 0.01, Seed: 7,
		TimeoutSeconds: 0.01, // the node really starts it; let it end at once
	}
	for i := 0; i < shard.Library; i++ {
		shard.Ligands = append(shard.Ligands, core.SyntheticName(i))
	}
	largest, err := json.Marshal(shard)
	if err != nil {
		t.Fatal(err)
	}
	oversize := `{"dataset":"` + strings.Repeat("x", service.MaxBodyBytes) + `"}`

	for _, c := range []struct {
		name, url, valid string
		want             int
	}{
		{"node POST /v1/screens", node.URL + "/v1/screens", string(largest), http.StatusAccepted},
		{"coordinator POST /v1/screens", screens.URL + "/v1/screens", string(largest), http.StatusAccepted},
		{"coordinator POST /v1/workers", members.URL + "/v1/workers", `{"url":"` + node.URL + `"}`, http.StatusOK},
	} {
		resp, err := http.Post(c.url, "application/json", strings.NewReader(oversize))
		if err != nil {
			t.Fatalf("%s oversize: %v", c.name, err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || body["error"] == "" {
			t.Errorf("%s oversize: status %d, body %v (decode: %v); want 413 with an error field", c.name, resp.StatusCode, body, err)
		}
		resp, err = http.Post(c.url, "application/json", strings.NewReader(c.valid))
		if err != nil {
			t.Fatalf("%s valid: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s largest valid request (%d bytes): status %d, want %d", c.name, len(c.valid), resp.StatusCode, c.want)
		}
	}
}
