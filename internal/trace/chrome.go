package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace export. The recorder's spans are written in the Chrome
// trace "JSON Array Format": a JSON array with one trace event per line
// (JSONL bracketed by [ ]), directly loadable in chrome://tracing and
// Perfetto. The two clock domains export as two trace
// processes — pid 1 "wall clock" and pid 2 "simulated device time" — so a
// job's real-time lifecycle and its modeled device timelines stay on
// separate, internally consistent axes.
//
// The output is deterministic: tracks get tids in sorted-name order and
// events are sorted by (pid, tid, ts, dur, name), so equal recorder
// contents produce byte-identical exports (see the golden test).

// Chrome trace pids, one per clock domain.
const (
	chromePidWall = 1
	chromePidSim  = 2
)

// chromeEvent is one Chrome trace event on the wire. Field order is the
// exported order; encoding/json keeps struct order and sorts map keys, so
// marshaling is deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"` // microseconds
	Dur   *float64          `json:"dur,omitempty"`
	Scope string            `json:"s,omitempty"` // instant-event scope
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// clockPid maps a span clock to its trace process.
func clockPid(clock string) int {
	if clock == ClockSim {
		return chromePidSim
	}
	return chromePidWall
}

// WriteChrome writes the recorder's timeline as a Chrome trace. Spans
// export as complete events ("ph":"X") or instant events ("ph":"i") when
// zero-length.
func (r *Recorder) WriteChrome(w io.Writer) error {
	type key struct {
		pid   int
		track string
	}
	// Collect everything as (pid, track, chromeEvent-sans-tid).
	type item struct {
		k  key
		ev chromeEvent
	}
	var items []item
	for _, s := range r.Spans() {
		pid := clockPid(s.Clock)
		ev := chromeEvent{Name: s.Name, Cat: s.Cat, Pid: pid, Ts: s.Start * 1e6, Args: s.Args}
		if s.End > s.Start {
			d := (s.End - s.Start) * 1e6
			ev.Ph, ev.Dur = "X", &d
		} else {
			ev.Ph, ev.Scope = "i", "t"
		}
		items = append(items, item{k: key{pid, s.Track}, ev: ev})
	}

	// Assign tids per process in sorted track order.
	tracks := map[key]int{}
	var keys []key
	for _, it := range items {
		if _, ok := tracks[it.k]; !ok {
			tracks[it.k] = 0
			keys = append(keys, it.k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].track < keys[j].track
	})
	nextTid := map[int]int{}
	for _, k := range keys {
		nextTid[k.pid]++
		tracks[k] = nextTid[k.pid]
	}

	// Metadata first: process names, then thread names in tid order.
	var out []chromeEvent
	meta := func(pid int, name, value string, tid int) {
		out = append(out, chromeEvent{
			Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]string{"name": value},
		})
	}
	pidNames := map[int]string{chromePidWall: "wall clock", chromePidSim: "simulated device time"}
	for _, pid := range []int{chromePidWall, chromePidSim} {
		if nextTid[pid] == 0 {
			continue
		}
		meta(pid, "process_name", pidNames[pid], 0)
	}
	for _, k := range keys {
		meta(k.pid, "thread_name", k.track, tracks[k])
	}

	// Then the timed events, fully ordered for byte stability.
	timed := make([]chromeEvent, 0, len(items))
	for _, it := range items {
		ev := it.ev
		ev.Tid = tracks[it.k]
		timed = append(timed, ev)
	}
	sort.SliceStable(timed, func(i, j int) bool {
		a, b := timed[i], timed[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		ad, bd := 0.0, 0.0
		if a.Dur != nil {
			ad = *a.Dur
		}
		if b.Dur != nil {
			bd = *b.Dur
		}
		if ad != bd {
			return ad > bd // longer (enclosing) spans first
		}
		return a.Name < b.Name
	})
	out = append(out, timed...)

	// One event per line, bracketed: valid JSON, Perfetto-loadable, and
	// line-diffable in the golden file.
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range out {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
