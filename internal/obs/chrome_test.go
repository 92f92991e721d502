package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodeTrace parses the exporter's output back into generic JSON.
func decodeTrace(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	return out
}

func TestWriteChromeTraceNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, buf.Bytes())
	if evs := out["traceEvents"].([]any); len(evs) != 0 {
		t.Errorf("nil tracer exported %d events, want 0", len(evs))
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	a := tr.Start("sched", "task-a")
	b := tr.Start("sched", "task-b")
	a.End()
	b.End()
	tr.Start("probe", "cache-size").End()
	tr.Count(CounterMemsysReset, 9)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, buf.Bytes())
	events := out["traceEvents"].([]any)

	var complete, meta, counter int
	tids := make(map[float64]bool)
	for _, e := range events {
		ev := e.(map[string]any)
		switch ev["ph"] {
		case "X":
			complete++
			tids[ev["tid"].(float64)] = true
			if ev["dur"] == nil {
				t.Errorf("complete event %v has no dur", ev)
			}
		case "M":
			meta++
		case "C":
			counter++
			if ev["name"] != CounterMemsysReset {
				t.Errorf("counter event name = %v", ev["name"])
			}
			if v := ev["args"].(map[string]any)["value"].(float64); v != 9 {
				t.Errorf("counter value = %v, want 9", v)
			}
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	// probe gets 1 lane, sched 2 (a and b overlapped) => 3 thread-name
	// rows and 3 distinct tids.
	if meta != 3 {
		t.Errorf("thread-name events = %d, want 3", meta)
	}
	if len(tids) != 3 {
		t.Errorf("distinct tids = %d, want 3", len(tids))
	}
	if counter != 1 {
		t.Errorf("counter events = %d, want 1", counter)
	}
	if out["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v", out["displayTimeUnit"])
	}
	// Categories tid-block in sorted order: probe (1 lane) before
	// sched (2 lanes), so the probe span sits on tid 1.
	if !strings.Contains(buf.String(), `"name": "probe #0"`) {
		t.Errorf("missing probe thread name:\n%s", buf.String())
	}
}

// TestWriteChromeTraceFile: the file holds exactly what
// WriteChromeTrace writes, and a path in a missing directory is an
// error.
func TestWriteChromeTraceFile(t *testing.T) {
	tr := New()
	tr.Start("probe", "cache-size").End()
	var want bytes.Buffer
	if err := tr.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("trace file holds\n%s\nWriteChromeTrace wrote\n%s", got, want.Bytes())
	}
	if err := tr.WriteChromeTraceFile(filepath.Join(path, "missing", "trace.json")); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
