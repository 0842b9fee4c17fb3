package fenceplace_test

// End-to-end observability tests through the public API: progress
// streaming from CertifyCtx, corpus-row events from the Runner, and trace
// emission on the certification path.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
)

// analyzedControl builds a reduced corpus kernel and analyzes its Control
// placement, the cheapest certifiable fixture.
func analyzedControl(t testing.TB, name string, threads int, size int64) *fenceplace.Result {
	t.Helper()
	m := progs.ByName(name)
	if m == nil {
		t.Fatalf("unknown program %q", name)
	}
	pp := m.Defaults
	pp.Threads = threads
	pp.Size = size
	return fenceplace.Analyze(m.Build(pp), fenceplace.Control)
}

// TestProgressStreamsCertification drives WithProgress end to end: one
// certification must produce heartbeat streams for both explorations, each
// closed by a Final event whose exact total matches the report, and the
// global registry's states_visited must advance by exactly the report's
// combined total (the acceptance-criterion invariant, measured through the
// public API).
func TestProgressStreamsCertification(t *testing.T) {
	res := analyzedControl(t, "dekker", 2, 1)
	before := telemetry.NewCounter("mc.states_visited").Value()

	var (
		mu     sync.Mutex
		events []fenceplace.ProgressEvent
	)
	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil,
		fenceplace.WithCacheDir(""), // no store: both explorations must run
		fenceplace.WithProgress(func(e fenceplace.ProgressEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
		fenceplace.WithProgressInterval(time.Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("dekker/Control not SC-equivalent: %s", rep)
	}

	finals := map[string]int64{}
	for _, e := range events {
		if e.Kind != fenceplace.ProgressExplore {
			t.Fatalf("unexpected event kind %v from a certification", e.Kind)
		}
		if e.Final {
			if _, dup := finals[e.Mode]; dup {
				t.Fatalf("two Final events for mode %s", e.Mode)
			}
			finals[e.Mode] = e.States
		}
	}
	if finals["SC"] != rep.VisitedSC {
		t.Errorf("SC final event: %d states, report says %d", finals["SC"], rep.VisitedSC)
	}
	if finals["TSO"] != rep.VisitedTSO {
		t.Errorf("TSO final event: %d states, report says %d", finals["TSO"], rep.VisitedTSO)
	}
	delta := telemetry.NewCounter("mc.states_visited").Value() - before
	if want := rep.VisitedSC + rep.VisitedTSO; delta != want {
		t.Errorf("mc.states_visited advanced by %d, want %d (VisitedSC+VisitedTSO)", delta, want)
	}
}

// testSource is a two-kernel corpus for row-event testing.
type testSource struct{ names []string }

func (s *testSource) Label() string     { return "telemetry-test" }
func (s *testSource) Len() int          { return len(s.names) }
func (s *testSource) Name(i int) string { return s.names[i] }
func (s *testSource) Build(i int) *fenceplace.Program {
	m := progs.ByName(s.names[i])
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	return m.Build(pp)
}
func (s *testSource) BuildManual(int) *fenceplace.Program { return nil }

// TestCorpusRowProgress checks the Runner's per-row completion events:
// exactly one per member, serialized, with RowsDone counting up to the
// source's length.
func TestCorpusRowProgress(t *testing.T) {
	src := &testSource{names: []string{"dekker", "peterson"}}
	var (
		mu   sync.Mutex
		rows []fenceplace.ProgressEvent
	)
	r := corpus.Runner{
		Workers: 2,
		Options: []fenceplace.Option{
			fenceplace.WithProgress(func(e fenceplace.ProgressEvent) {
				if e.Kind != fenceplace.ProgressRow {
					return
				}
				mu.Lock()
				rows = append(rows, e)
				mu.Unlock()
			}),
		},
	}
	rep, err := r.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != src.Len() {
		t.Fatalf("%d report rows, want %d", len(rep.Rows), src.Len())
	}
	if len(rows) != src.Len() {
		t.Fatalf("%d row events, want %d", len(rows), src.Len())
	}
	seen := map[int]bool{}
	for _, e := range rows {
		if e.RowsTotal != src.Len() {
			t.Errorf("RowsTotal = %d, want %d", e.RowsTotal, src.Len())
		}
		if e.RowsDone < 1 || e.RowsDone > src.Len() || seen[e.RowsDone] {
			t.Errorf("RowsDone sequence broken: %v", rows)
		}
		seen[e.RowsDone] = true
		if e.Program != "dekker" && e.Program != "peterson" {
			t.Errorf("row event for unknown program %q", e.Program)
		}
	}
}

// TestTraceThroughCertification installs a trace sink, certifies, and
// checks the produced file is a valid Chrome trace-event array carrying
// the exploration spans.
func TestTraceThroughCertification(t *testing.T) {
	res := analyzedControl(t, "dekker", 2, 1)

	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	prev := telemetry.SetTrace(tw)
	defer telemetry.SetTrace(prev)

	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, fenceplace.WithCacheDir(""))
	telemetry.SetTrace(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("dekker/Control not SC-equivalent: %s", rep)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var evs []struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Args map[string]int64 `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	modes := map[string]int64{}
	for _, ev := range evs {
		if ev.Ph != "X" {
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Cat == "mc" {
			modes[ev.Name] = ev.Args["visited"]
		}
	}
	sc, tso := modes["explore dekker/SC"], modes["explore dekker/TSO"]
	if sc != rep.VisitedSC || tso != rep.VisitedTSO {
		t.Errorf("explore spans report visited SC=%d TSO=%d, report says %d/%d (spans: %v)",
			sc, tso, rep.VisitedSC, rep.VisitedTSO, modes)
	}
}
