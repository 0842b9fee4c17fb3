package main

import (
	"strings"
	"time"

	"fenceplace/internal/telemetry"
)

// metricDef names a reported metric and its unit. Direction and
// regression bound live in BENCHMARK.json; a test keeps the two lists in
// step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"ops_per_s", "ops/s"},
	{"peak_rss_mb", "MB"},
}

// passMetrics maps the analyzer's pass names (strategy suffix dropped) to
// their per-layer metric.
var passMetrics = []struct{ pass, metric string }{
	{"alias", "passes.alias_ms"},
	{"escape", "passes.escape_ms"},
	{"cfg", "passes.cfg_ms"},
	{"orders", "passes.orders_ms"},
	{"slice-index", "passes.slice_index_ms"},
	{"acquire", "passes.acquire_ms"},
	{"prune", "passes.prune_ms"},
	{"minimize", "passes.minimize_ms"},
	{"apply", "passes.apply_ms"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload does not exercise reports 0. Times per call appear
// only for layers every workload exercises, so no time reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"progs.self_pct", "%"},
		{"frontend.self_pct", "%"},
		{"ir.self_pct", "%"},
		{"passes.self_pct", "%"},
		{"fence.self_pct", "%"},
		{"tso.self_pct", "%"},
		{"mc.sc_self_pct", "%"},
		{"mc.tso_self_pct", "%"},
		{"store.self_pct", "%"},
		{"codec.self_pct", "%"},
		{"corpus.self_pct", "%"},
		{"trace.coverage_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"frontend.files_per_s", "1/s"},
		{"ir.parses_per_s", "1/s"},
		{"passes.analyze_ms", "ms"},
	}
	for _, p := range passMetrics {
		defs = append(defs, metricDef{p.metric, "ms"})
	}
	return append(defs, []metricDef{
		{"fence.verify_ms", "ms"},
		{"tso.sim_runs", "count"},
		{"tso.sim_runs_per_s", "1/s"},
		{"mc.sc_states", "count"},
		{"mc.tso_states", "count"},
		{"mc.sc_states_per_s", "states/s"},
		{"mc.tso_states_per_s", "states/s"},
		{"mc.seen_new_ratio", "ratio"},
		{"mc.por_prune_ratio", "ratio"},
		{"mc.steals", "count"},
		{"mc.seen_hot_hit_ratio", "ratio"},
		{"mc.seen_seals", "count"},
		{"mc.spill_mb", "MB"},
		{"mc.states_per_s.w1.dekker", "states/s"},
		{"mc.states_per_s.wN.dekker", "states/s"},
		{"mc.par_eff.dekker", "ratio"},
		{"mc.states_per_s.w1.szymanski", "states/s"},
		{"mc.states_per_s.wN.szymanski", "states/s"},
		{"mc.par_eff.szymanski", "ratio"},
		{"store.hit_ratio", "ratio"},
		{"store.gets_per_s", "1/s"},
		{"store.puts_per_s", "1/s"},
		{"store.io_retries", "count"},
		{"codec.encode_mb_per_s", "MB/s"},
		{"codec.decode_mb_per_s", "MB/s"},
		{"codec.bytes", "B"},
		{"corpus.encode_mb_per_s", "MB/s"},
		{"corpus.report_kb", "KB"},
		{"corpus.renders_per_s", "1/s"},
		{"service.coalesced_ratio", "ratio"},
		{"service.queue_rejects", "count"},
		{"service.overhead_pct", "%"},
		{"service.p95_over_p50", "ratio"},
	}...)
}()

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// div is a/b, or 0 when b is 0: a layer a workload never calls reports 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rate is calls per busy second of one operation.
func rate(o opStat) float64 { return div(float64(o.count), o.busy.Seconds()) }

// perCallMS is the mean busy time per call in milliseconds.
func perCallMS(o opStat) float64 { return div(ms(o.busy), float64(o.count)) }

// mbPerS is the reported bytes per busy second, in MiB/s.
func mbPerS(o opStat) float64 { return div(float64(o.n)/(1<<20), o.busy.Seconds()) }

// counterDelta is the change of the process-wide counters over a run.
type counterDelta map[string]int64

func deltaOf(before, after telemetry.Snapshot) counterDelta {
	d := counterDelta{}
	for k, v := range after.Counters {
		d[k] = v - before.Counters[k]
	}
	return d
}

func (d counterDelta) f(name string) float64 { return float64(d[name]) }

func (d counterDelta) add(o counterDelta) {
	for k, v := range o {
		d[k] += v
	}
}

// layerMetrics derives the per-layer metrics of a traced run from its
// span summary, the analyzer's pass timings and the counter deltas.
func layerMetrics(sum summary, rec *recorder, d counterDelta, overheadPct float64) map[string]float64 {
	share := func(layer string) float64 { return pct(sum.layer(layer).self, sum.total) }
	m := map[string]float64{
		"progs.self_pct":     share(layerProgs),
		"frontend.self_pct":  share(layerFrontend),
		"ir.self_pct":        share(layerIR),
		"passes.self_pct":    share(layerPasses),
		"fence.self_pct":     share(layerFence),
		"tso.self_pct":       share(layerTSO),
		"mc.sc_self_pct":     share(layerMCSC),
		"mc.tso_self_pct":    share(layerMCTSO),
		"store.self_pct":     share(layerStore),
		"codec.self_pct":     share(layerCodec),
		"corpus.self_pct":    share(layerCorpus),
		"trace.coverage_pct": 100 - share(layerBench),
		"trace.overhead_pct": overheadPct,
	}
	m["frontend.files_per_s"] = rate(sum.op(layerFrontend, "lower"))
	m["ir.parses_per_s"] = rate(sum.op(layerIR, "parse"))
	m["passes.analyze_ms"] = perCallMS(sum.op(layerPasses, "analyze"))
	byPass := map[string]int64{}
	rec.mu.Lock()
	for name, ns := range rec.passNS {
		base, _, _ := strings.Cut(name, "/") // "prune/Control" -> "prune"
		byPass[base] += ns
	}
	nprogs := float64(rec.nprogs)
	rec.mu.Unlock()
	for _, p := range passMetrics {
		m[p.metric] = div(ms(time.Duration(byPass[p.pass])), nprogs)
	}
	m["fence.verify_ms"] = perCallMS(sum.op(layerFence, "verify"))
	sim := sum.op(layerTSO, "run")
	m["tso.sim_runs"] = float64(sim.count)
	m["tso.sim_runs_per_s"] = rate(sim)

	sc, ts := sum.op(layerMCSC, "explore sc"), sum.op(layerMCTSO, "explore tso")
	m["mc.sc_states"] = float64(sc.n)
	m["mc.tso_states"] = float64(ts.n)
	m["mc.sc_states_per_s"] = div(float64(sc.n), sc.busy.Seconds())
	m["mc.tso_states_per_s"] = div(float64(ts.n), ts.busy.Seconds())
	m["mc.seen_new_ratio"] = div(d.f("mc.seen_states"), d.f("mc.seen_probes"))
	m["mc.por_prune_ratio"] = div(d.f("mc.sleep_set_prunes"), d.f("mc.transitions_executed"))
	m["mc.steals"] = d.f("mc.steals")
	m["mc.seen_hot_hit_ratio"] = div(d.f("mc.seen_hot_hits"), d.f("mc.seen_hot_hits")+d.f("mc.seen_cold_hits"))
	m["mc.seen_seals"] = d.f("mc.seen_seals")
	m["mc.spill_mb"] = d.f("mc.spill_bytes") / (1 << 20)

	m["store.hit_ratio"] = div(d.f("store.hits"), d.f("store.hits")+d.f("store.misses"))
	m["store.gets_per_s"] = rate(sum.op(layerStore, "get"))
	m["store.puts_per_s"] = rate(sum.op(layerStore, "put"))
	m["store.io_retries"] = d.f("store.io_retries")

	enc, dec := sum.op(layerCodec, "encode"), sum.op(layerCodec, "decode")
	m["codec.encode_mb_per_s"] = mbPerS(enc)
	m["codec.decode_mb_per_s"] = mbPerS(dec)
	m["codec.bytes"] = div(float64(enc.n+dec.n), float64(enc.count+dec.count))

	rep := sum.op(layerCorpus, "encode")
	m["corpus.encode_mb_per_s"] = mbPerS(rep)
	m["corpus.report_kb"] = div(float64(rep.n)/1024, float64(rep.count))
	m["corpus.renders_per_s"] = rate(sum.op(layerCorpus, "render"))
	return m
}
