package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fenceplace/internal/stats"
	"fenceplace/internal/telemetry"
)

// Layer names: the modules a traced run attributes time to. Spans are
// recorded by this benchmark around its calls into each module; the
// modules themselves are not instrumented for it.
const (
	layerBench    = "bench"    // the benchmark's own glue: ops, rows, row assembly
	layerProgs    = "progs"    // building corpus programs (internal/progs)
	layerFrontend = "frontend" // fenceplace.ParseGo
	layerIR       = "ir"       // fenceplace.Parse
	layerPasses   = "passes"   // NewAnalyzer + AnalyzeAllCtx
	layerFence    = "fence"    // Result.Verify
	layerTSO      = "tso"      // tso.Run, the Figure 10 simulator
	layerMCSC     = "mc.sc"    // mc.NewBaselineCtx
	layerMCTSO    = "mc.tso"   // mc.CertifyAgainstCtx
	layerStore    = "store"    // store.Open, GetCtx, PutCtx
	layerCodec    = "codec"    // mc.BaselineKey, MarshalBinary, UnmarshalBaseline
	layerCorpus   = "corpus"   // Report.EncodeJSON and the table renderers
)

// layerOrder fixes the order layers print in.
var layerOrder = []string{
	layerBench, layerProgs, layerFrontend, layerIR, layerPasses, layerFence,
	layerTSO, layerMCSC, layerMCTSO, layerStore, layerCodec, layerCorpus,
}

// span is one recorded call: a named interval in a layer, the span that
// caused it, and the op (pass, certification or request) it belongs to.
type span struct {
	parent int // index into recorder.spans; -1 for an op's root span
	lane   int32
	op     int64
	layer  string
	name   string
	start  time.Time
	end    time.Time
	n      int64 // work the call reported: states explored, bytes coded
	failed bool
}

// recorder keeps spans in memory; they are summarized, and optionally
// written as a Chrome trace, once the traced run ends.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	passNS map[string]int64 // per-pass self time summed over analyzed programs
	nprogs int              // programs whose pass timings were added
}

func newRecorder() *recorder { return &recorder{passNS: map[string]int64{}} }

// scope is where new spans attach: the recorder (nil when tracing is off),
// the parent span, the trace lane and the op id.
type scope struct {
	rec    *recorder
	parent int
	lane   int32
	op     int64
}

// rootScope starts the scope of one op on the given lane.
func rootScope(rec *recorder, lane int32, op int64) scope {
	return scope{rec: rec, parent: -1, lane: lane, op: op}
}

func (r *recorder) begin(parent int, lane int32, op int64, layer, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		parent: parent, lane: lane, op: op,
		layer: layer, name: name, start: time.Now(),
	})
	return len(r.spans) - 1
}

func (r *recorder) finish(id int, n int64, err error) {
	end := time.Now()
	r.mu.Lock()
	sp := &r.spans[id]
	sp.end, sp.n, sp.failed = end, n, err != nil
	r.mu.Unlock()
}

// call runs fn inside a span of the given layer; fn reports the work it
// did (states, bytes) and its error. Without a recorder it just runs fn.
func (s scope) call(layer, name string, fn func() (int64, error)) error {
	if s.rec == nil {
		_, err := fn()
		return err
	}
	id := s.rec.begin(s.parent, s.lane, s.op, layer, name)
	n, err := fn()
	s.rec.finish(id, n, err)
	return err
}

// enter opens a span that encloses further spans, on its own lane when
// lane is non-zero, and returns the scope for its children and the
// function that closes it.
func (s scope) enter(layer, name string, lane int32) (scope, func(err error)) {
	if s.rec == nil {
		return s, func(error) {}
	}
	if lane == 0 {
		lane = s.lane
	}
	id := s.rec.begin(s.parent, lane, s.op, layer, name)
	return scope{rec: s.rec, parent: id, lane: lane, op: s.op}, func(err error) { s.rec.finish(id, 0, err) }
}

// addPassTimings folds one program's per-pass self times into the totals.
func (r *recorder) addPassTimings(byPass map[string]time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, d := range byPass {
		r.passNS[name] += d.Nanoseconds()
	}
	r.nprogs++
}

// layerStat summarizes one layer's spans.
type layerStat struct {
	count  int
	busy   time.Duration // summed span durations
	self   time.Duration // busy minus the time child spans cover
	failed int
}

// opStat summarizes spans of one layer and one operation name.
type opStat struct {
	count int
	busy  time.Duration
	n     int64
}

// summary is the per-layer digest of a recording.
type summary struct {
	layers map[string]*layerStat
	ops    map[string]*opStat // key "layer/name"
	total  time.Duration      // summed self time over every layer
}

// summarize computes busy and self time per layer. A span's self time is
// its duration minus the union of its children's intervals, so self times
// partition each lane's busy time and sum to it.
func (r *recorder) summarize() summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, sp := range r.spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	sum := summary{layers: map[string]*layerStat{}, ops: map[string]*opStat{}}
	for i, sp := range r.spans {
		dur := sp.end.Sub(sp.start)
		self := dur - covered(r.spans, children[i], sp.start, sp.end)
		ls := sum.layers[sp.layer]
		if ls == nil {
			ls = &layerStat{}
			sum.layers[sp.layer] = ls
		}
		ls.count++
		ls.busy += dur
		ls.self += self
		if sp.failed {
			ls.failed++
		}
		key := sp.layer + "/" + sp.name
		o := sum.ops[key]
		if o == nil {
			o = &opStat{}
			sum.ops[key] = o
		}
		o.count++
		o.busy += dur
		o.n += sp.n
		sum.total += self
	}
	return sum
}

// covered returns how much of [start, end) the given spans cover.
func covered(spans []span, ids []int, start, end time.Time) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].start, spans[id].end
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// op returns the named operation's stats (zero when it never ran).
func (s summary) op(layer, name string) opStat {
	if o := s.ops[layer+"/"+name]; o != nil {
		return *o
	}
	return opStat{}
}

// layer returns the layer's stats (zero when it never ran).
func (s summary) layer(name string) layerStat {
	if l := s.layers[name]; l != nil {
		return *l
	}
	return layerStat{}
}

// table renders the per-layer breakdown printed by a traced run.
func (s summary) table() string {
	t := stats.NewTable("layer", "spans", "busy ms", "self ms", "self share", "failed")
	for _, name := range layerOrder {
		l := s.layer(name)
		if l.count == 0 {
			continue
		}
		t.Add(name, fmt.Sprint(l.count),
			fmt.Sprintf("%.1f", ms(l.busy)), fmt.Sprintf("%.1f", ms(l.self)),
			fmt.Sprintf("%.1f%%", pct(l.self, s.total)), fmt.Sprint(l.failed))
	}
	return t.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns part as a percentage of whole, 0 when whole is 0.
func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// writeChromeTrace writes the spans through the telemetry package's
// trace-event writer, which must have been created before the first span
// (its creation is the trace's time origin): layer as category, lane as
// track, and the op, span and parent ids plus the reported work as
// arguments. It closes the writer.
func (r *recorder) writeChromeTrace(tw *telemetry.TraceWriter) error {
	prev := telemetry.SetTrace(tw)
	r.mu.Lock()
	for i, sp := range r.spans {
		telemetry.Emit(telemetry.Span{
			Name: sp.name, Cat: sp.layer, Track: sp.lane,
			Start: sp.start, Dur: sp.end.Sub(sp.start),
			Args: []telemetry.Arg{
				{Key: "op", Val: sp.op}, {Key: "span", Val: int64(i)},
				{Key: "parent", Val: int64(sp.parent)}, {Key: "n", Val: sp.n},
			},
		})
	}
	r.mu.Unlock()
	telemetry.SetTrace(prev)
	return tw.Close()
}
