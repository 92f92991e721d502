package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
)

// Chrome trace-event JSON export: the trace format Perfetto and
// chrome://tracing load. Every span becomes a complete ("X") event;
// the (category, lane) pairs map to thread ids so concurrent spans of
// one category render side by side, with thread-name metadata naming
// each lane. Counters are emitted as one counter ("C") event each at
// the trace's end, carrying the final value.

// chromeEvent is one trace-event object.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// micros converts a duration offset to trace microseconds.
func micros(d int64) float64 { return float64(d) / 1e3 }

// WriteChromeTrace writes the trace as Chrome trace-event JSON. On
// the nil tracer it writes an empty trace. Thread ids are assigned by
// sorted category so the track layout is stable across runs of the
// same workload.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	counters := t.Counters()

	// Lane count per category, then tid blocks in sorted-category
	// order: tid = base(cat) + lane, with tid 0 left to the process.
	laneCount := make(map[string]int)
	for _, s := range spans {
		if s.Lane+1 > laneCount[s.Cat] {
			laneCount[s.Cat] = s.Lane + 1
		}
	}
	cats := make([]string, 0, len(laneCount))
	for cat := range laneCount {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	base := make(map[string]int, len(cats))
	next := 1
	for _, cat := range cats {
		base[cat] = next
		next += laneCount[cat]
	}

	events := make([]chromeEvent, 0, len(spans)+len(counters)+next)
	for _, cat := range cats {
		for lane := 0; lane < laneCount[cat]; lane++ {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: base[cat] + lane,
				Args: map[string]any{"name": cat + " #" + strconv.Itoa(lane)},
			})
		}
	}
	var end int64
	spanEvents := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		dur := micros(int64(s.Dur))
		spanEvents = append(spanEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: micros(int64(s.Start)), Dur: &dur,
			PID: 1, TID: base[s.Cat] + s.Lane,
		})
		if v := int64(s.Start) + int64(s.Dur); v > end {
			end = v
		}
	}
	// Stable rendering: spans ordered by start time, then name.
	sort.SliceStable(spanEvents, func(i, j int) bool {
		if spanEvents[i].TS != spanEvents[j].TS {
			return spanEvents[i].TS < spanEvents[j].TS
		}
		return spanEvents[i].Name < spanEvents[j].Name
	})
	events = append(events, spanEvents...)

	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		events = append(events, chromeEvent{
			Name: name, Ph: "C", TS: micros(end), PID: 1, TID: 0,
			Args: map[string]any{"value": counters[name]},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the trace as a Chrome trace-event file at
// path, creating or truncating it.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
