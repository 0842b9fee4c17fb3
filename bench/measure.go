package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace"
	"fenceplace/internal/mc"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// sliceLen is how long the measured phase runs between two calibration
// points: short next to the minutes over which the host's speed drifts.
const sliceLen = time.Second

// Set-up repeats at least minSetups times and until the set-ups have
// taken setupTime, at most maxSetups times, so a short set-up is sampled
// more often; setup_s is the median. A run whose measured phase is shorter
// than one slice (a smoke run) sets up once.
const (
	minSetups = 3
	maxSetups = 15
	setupTime = 2 * time.Second
)

// measureEndToEnd sets the workload up several times, each time running
// its first (cold) pass, then times units through the public entry
// points for dur. The last set-up serves the measured phase. Every time is
// divided by the host slowdown measured around it (see calib.go);
// res.Raw keeps the undivided values.
func measureEndToEnd(ctx context.Context, w *workload, e *env, dur time.Duration, res *result) error {
	var fx fixture
	var setupRef []float64
	var spent time.Duration
	for n := 0; n < maxSetups && (n < minSetups || spent < setupTime); n++ {
		if fx != nil {
			fx.close()
		}
		before := slowdown()
		start := time.Now()
		var err error
		if fx, err = w.open(ctx, e); err != nil {
			return err
		}
		_, u, _ := timed(ctx, fx.clients(), time.Hour, fx.cold(), func(int) unit { return fx.run(ctx) })
		d := time.Since(start)
		spent += d
		res.addUnit(u)
		res.SetupS = append(res.SetupS, d.Seconds())
		setupRef = append(setupRef, d.Seconds()/((before+slowdown())/2))
		if dur < sliceLen {
			break
		}
	}
	defer fx.close()
	res.Clients = fx.clients()

	// The measured phase runs in slices with a calibration point between
	// any two; a slice's times are divided by the mean of its two points.
	var lat, latRef, slowdowns []float64
	var total unit
	var wall, wallRef, elapsed time.Duration
	k0 := slowdown()
	for elapsed < dur {
		l, u, sw := timed(ctx, fx.clients(), min(sliceLen, dur-elapsed), 0, func(int) unit { return fx.run(ctx) })
		if err := ctx.Err(); err != nil {
			return err
		}
		k1 := slowdown()
		k := (k0 + k1) / 2
		for _, x := range l {
			lat = append(lat, x)
			latRef = append(latRef, x/k)
		}
		total.add(u)
		wall += sw
		wallRef += time.Duration(float64(sw) / k)
		slowdowns = append(slowdowns, k)
		elapsed += sw
		k0 = k1
	}
	res.addUnit(total)
	res.Samples = len(latRef)
	if p, ok := tailPercentile(len(latRef)); ok {
		res.TailP, res.TailMS = p, percentile(latRef, p)
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	set("setup_s", median(setupRef))
	set("latency_ms_p50", median(latRef))
	set("ops_per_s", float64(total.ops)/wallRef.Seconds())
	res.Raw = &rawValues{
		SetupS:    median(res.SetupS),
		LatencyMS: median(lat),
		OpsPerS:   float64(total.ops) / wall.Seconds(),
		Slowdown:  median(slowdowns),
	}
	return nil
}

// timed runs units on clients concurrent closed loops, each starting its
// next unit only when the previous one finished, until dur has passed
// (every client runs at least one unit) or, when limit > 0, until limit
// units have started. It returns each unit's latency in milliseconds, the
// summed outcome and the wall time until the last unit finished.
func timed(ctx context.Context, clients int, dur time.Duration, limit int64, do func(client int) unit) ([]float64, unit, time.Duration) {
	var (
		mu      sync.Mutex
		lat     []float64
		total   unit
		started atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for first := true; ctx.Err() == nil; first = false {
				if !first && time.Since(start) >= dur {
					return
				}
				if limit > 0 && started.Add(1) > limit {
					return
				}
				t0 := time.Now()
				u := do(c)
				d := time.Since(t0)
				mu.Lock()
				lat = append(lat, ms(d))
				total.add(u)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat, total, time.Since(start)
}

// tracedBlocks is how many blocks a traced run alternates: a block of
// units with spans recorded, then the same units with recording off on a
// second fixture, so both sides see the same process warmth and the
// difference of their times is the tracing overhead.
const tracedBlocks = 10

// extras is implemented by fixtures whose traced run measures more than
// the replay: the service over HTTP, parallel efficiency probes.
type extras interface {
	extras(ctx context.Context, units int64, m map[string]float64) (unit, error)
}

// measureTraced replays the workload's inputs through the direct path,
// alternating blocks with span recording on and off, and reports the
// per-layer metrics.
func measureTraced(ctx context.Context, w *workload, e *env, dur time.Duration, traceOut string, res *result) error {
	var tw *telemetry.TraceWriter
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		tw = telemetry.NewTraceWriter(f)
		defer tw.Close() // on an error path, leaves a valid trace without events
	}
	traced, err := w.open(ctx, e)
	if err != nil {
		return err
	}
	defer traced.close()
	plain, err := w.open(ctx, e)
	if err != nil {
		return err
	}
	defer plain.close()
	res.Clients = traced.clients()
	// One untraced unit on each side first, so lazy set-up stays out of
	// the layer shares. For service-mixed that is the first request of the
	// warm-up round; the rest of the round is traced, so the store's write
	// path and the SC explorations of a restarted daemon show.
	for _, fx := range []fixture{traced, plain} {
		_, u, _ := timed(ctx, fx.clients(), time.Hour, 1, func(int) unit { return fx.direct(ctx, scope{}) })
		res.addUnit(u)
	}

	rec := newRecorder()
	var op atomic.Int64
	d := counterDelta{}
	var units int64
	var tracedWall, plainWall time.Duration
	block := (w.traced + tracedBlocks - 1) / tracedBlocks
	start := time.Now()
	for units < w.traced && (units == 0 || time.Since(start) < dur) {
		k := min(block, w.traced-units)
		before := telemetry.Default().Snapshot()
		_, u, wall := timed(ctx, traced.clients(), time.Hour, k, func(c int) unit {
			return traced.direct(ctx, rootScope(rec, int32(c+1), op.Add(1)))
		})
		d.add(deltaOf(before, telemetry.Default().Snapshot()))
		res.addUnit(u)
		tracedWall += wall
		_, u, wall = timed(ctx, plain.clients(), time.Hour, k, func(int) unit {
			return plain.direct(ctx, scope{})
		})
		res.addUnit(u)
		plainWall += wall
		units += k
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	if x, ok := traced.(extras); ok {
		xu, err := x.extras(ctx, units, m)
		res.addUnit(xu)
		if err != nil {
			return err
		}
	}
	sum := rec.summarize()
	overhead := 100 * (tracedWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	for k, v := range layerMetrics(sum, rec, d, overhead) {
		m[k] = v
	}
	for k, v := range m {
		res.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}
	fmt.Fprintf(os.Stderr, "\n%s traced: %d units, %.2fs with spans recorded, %.2fs without\n%s",
		w.name, units, tracedWall.Seconds(), plainWall.Seconds(), sum.table())
	if tw != nil {
		return rec.writeChromeTrace(tw)
	}
	return nil
}

// extras of cert-large: TSO exploration rate of its certification at one
// worker and at GOMAXPROCS workers.
func (f *certLarge) extras(ctx context.Context, _ int64, m map[string]float64) (unit, error) {
	plan := f.plan()
	return parProbe(ctx, largeBuild(), plan.cfg, 1, "szymanski", m)
}

// extras of service-mixed: the same requests over HTTP against a fresh
// daemon, for the service's own numbers, and the parallel efficiency of
// the hot request's TSO exploration.
func (f *serviceMixed) extras(ctx context.Context, units int64, m map[string]float64) (unit, error) {
	fx, err := openServiceMixed(ctx, f.e)
	if err != nil {
		return unit{}, err
	}
	sf := fx.(*serviceMixed)
	defer sf.close()
	run := func(int) unit { return sf.run(ctx) }
	_, total, _ := timed(ctx, sf.clients(), time.Hour, sf.cold(), run) // the cold pass
	sf.takeCalls()
	before := telemetry.Default().Snapshot()
	_, u, _ := timed(ctx, sf.clients(), time.Hour, units, run)
	d := deltaOf(before, telemetry.Default().Snapshot())
	total.add(u)

	calls := sf.takeCalls()
	var client, overhead []float64
	for _, c := range calls {
		client = append(client, ms(c.client))
		if !c.coalesced {
			overhead = append(overhead, 100*(ms(c.client)-ms(c.server))/ms(c.client))
		}
	}
	m["service.coalesced_ratio"] = div(d.f("service.coalesced_hits"), d.f("service.jobs_submitted"))
	m["service.queue_rejects"] = d.f("service.queue_rejects")
	if len(overhead) > 0 {
		m["service.overhead_pct"] = median(overhead)
	}
	if len(client) > 0 {
		m["service.p95_over_p50"] = percentile(client, 95) / median(client)
	}
	pu, err := parProbe(ctx, reducedBuild("dekker"), mc.Config{MaxStates: serviceMaxStates, MemoryCap: serviceMemoryCap}, 20, "dekker", m)
	total.add(pu)
	return total, err
}

// parProbe measures the TSO exploration rate of prog's Control placement
// at one worker and at GOMAXPROCS workers, over reps explorations each,
// and the parallel efficiency: the speed-up divided by the worker count.
func parProbe(ctx context.Context, prog *fenceplace.Program, cfg mc.Config, reps int, name string, m map[string]float64) (unit, error) {
	u := unit{ops: 1}
	res, err := fenceplace.NewAnalyzer(prog, noPersistence...).AnalyzeCtx(ctx, fenceplace.Control)
	if err != nil {
		u.fail(1, err.Error())
		return u, err
	}
	scCfg := cfg
	scCfg.Mode = tso.SC
	base, err := mc.NewBaselineCtx(ctx, prog, nil, scCfg)
	if err != nil {
		u.fail(1, err.Error())
		return u, err
	}
	n := runtime.GOMAXPROCS(0)
	rates := map[int]float64{}
	for _, w := range []int{1, n} {
		c := cfg
		c.Workers = w
		var states int64
		start := time.Now()
		for i := 0; i < reps; i++ {
			rep, err := mc.CertifyAgainstCtx(ctx, base, res.Instrumented, c)
			if err == nil && !rep.Equivalent {
				err = fmt.Errorf("%s: not SC-equivalent at %d workers", name, w)
			}
			if err != nil {
				u.fail(1, err.Error())
				return u, err
			}
			states += rep.VisitedTSO
		}
		rates[w] = float64(states) / time.Since(start).Seconds()
	}
	m["mc.states_per_s.w1."+name] = rates[1]
	m["mc.states_per_s.wN."+name] = rates[n]
	m["mc.par_eff."+name] = rates[n] / rates[1] / float64(n)
	return u, nil
}
