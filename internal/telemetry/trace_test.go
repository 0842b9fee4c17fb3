package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceEvent mirrors the Chrome trace-event fields the writer emits.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Args map[string]int64 `json:"args"`
}

// TestTraceWriterValidJSON emits spans from many goroutines and checks the
// closed file is one valid JSON array of complete-duration events.
func TestTraceWriterValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	base := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(track int32) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tw.emit(Span{
					Name:  "work",
					Cat:   "test",
					Track: track,
					Start: base.Add(time.Duration(i) * time.Microsecond),
					Dur:   3*time.Microsecond + 141*time.Nanosecond,
					Args:  []Arg{{"i", int64(i)}},
				})
			}
		}(int32(g + 1))
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a valid JSON array: %v\n%s", err, buf.Bytes())
	}
	if len(events) != 8*50 {
		t.Fatalf("decoded %d events, want %d", len(events), 8*50)
	}
	for _, ev := range events {
		if ev.Ph != "X" || ev.Name != "work" || ev.Cat != "test" || ev.Tid < 1 || ev.Tid > 8 {
			t.Fatalf("malformed event: %+v", ev)
		}
		if ev.Dur < 3.141-1e-9 || ev.Dur > 3.141+1e-9 {
			t.Fatalf("dur = %v µs, want 3.141", ev.Dur)
		}
	}
}

// TestTraceWriterEmpty checks an immediately-closed trace is still valid
// JSON (an empty array).
func TestTraceWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(events) != 0 {
		t.Fatalf("empty trace decoded %d events", len(events))
	}
}

// TestSetTraceRouting checks Emit routes to the installed sink and stops
// when it is removed.
func TestSetTraceRouting(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	prev := SetTrace(tw)
	defer SetTrace(prev)
	if !TraceEnabled() {
		t.Fatal("TraceEnabled is false with a sink installed")
	}
	Emit(Span{Name: "routed", Cat: "test", Start: time.Now()})
	SetTrace(prev)
	Emit(Span{Name: "dropped", Cat: "test", Start: time.Now()})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "routed") || strings.Contains(out, "dropped") {
		t.Fatalf("routing wrong:\n%s", out)
	}
}

// TestNextTrackMonotonic checks tracks are unique and increasing.
func TestNextTrackMonotonic(t *testing.T) {
	a, b := NextTrack(), NextTrack()
	if b <= a || a < 1 {
		t.Fatalf("NextTrack: %d then %d", a, b)
	}
}

// TestServeExportsRegistry binds the diagnostics server to an ephemeral
// port and checks /debug/vars carries the published registry snapshot.
func TestServeExportsRegistry(t *testing.T) {
	NewCounter("serve.test").Inc()
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Fenceplace Snapshot `json:"fenceplace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Fenceplace.Counters["serve.test"] < 1 {
		t.Fatalf("/debug/vars missing the registry snapshot: %+v", vars.Fenceplace)
	}
}
