package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files")

// goldenRecorder builds a fixed timeline exercising both clock domains,
// both event kinds (complete and instant), args, and device spans as a
// scheduling pool records them.
func goldenRecorder() *Recorder {
	r := &Recorder{}
	device := func(i int, name string, start, end float64) {
		r.AddSpan(Span{Track: DeviceTrack(i), Name: name, Cat: CatDevice, Clock: ClockSim, Start: start, End: end})
	}
	device(0, "warmup", 0, 0.4)
	device(1, "scoring", 0.4, 1.1)
	device(1, "resplit", 1.1, 1.1)
	r.AddSpan(Span{
		Track: "job", Name: "job job-000001", Cat: CatJob,
		Start: 0, End: 2.5,
		Args: map[string]string{"job": "job-000001", "state": "done"},
	})
	r.AddSpan(Span{
		Track: "job", Name: "queued", Cat: CatJob,
		Start: 0, End: 0.25,
	})
	r.AddSpan(Span{
		Track: "lig:LIG-000/generations", Name: "generation 1", Cat: CatGeneration,
		Clock: ClockSim, Start: 0.4, End: 1.2,
		Args: map[string]string{"generation": "1"},
	})
	r.AddSpan(Span{
		Track: "screen", Name: "ligand LIG-000", Cat: CatLigand,
		Start: 0.3, End: 2.2,
		Args: map[string]string{"ligand": "LIG-000"},
	})
	return r
}

// TestWriteChromeGolden pins the exporter's byte-exact output. Run with
// -update after an intentional format change.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run go test ./internal/trace -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteChromeStable asserts two exports of the same content are
// byte-identical even when the recorder was filled in a different order.
func TestWriteChromeStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenRecorder().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	// Same content, reversed insertion order.
	src := goldenRecorder()
	r := &Recorder{}
	spans := src.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		r.AddSpan(spans[i])
	}
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("export depends on insertion order:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// TestWriteChromeParses asserts the export is valid JSON in the Chrome
// trace shape: an array of events, each with name/ph/pid/tid, where every
// "X" event has a duration and every tid is named by a metadata event.
func TestWriteChromeParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	events := ParseChrome(t, buf.Bytes())
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	named := map[[2]float64]bool{}
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			named[[2]float64{ev["pid"].(float64), ev["tid"].(float64)}] = true
		}
	}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event without name: %v", ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event without ts: %v", ev)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		}
		key := [2]float64{ev["pid"].(float64), ev["tid"].(float64)}
		if !named[key] {
			t.Fatalf("event on unnamed track pid=%v tid=%v", ev["pid"], ev["tid"])
		}
	}
}

// TestWriteChromeEmpty asserts an empty recorder still exports valid JSON.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Recorder{}).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(events) != 0 {
		t.Fatalf("empty recorder exported %d events", len(events))
	}
}

// ParseChrome decodes a Chrome trace export for assertions.
func ParseChrome(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b)
	}
	return events
}
