package mc

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace/internal/ir"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// Registry metrics of the model checker. Workers accumulate plain local
// counts (workerStats) and flush them once per exploration on their own
// shard, so the hot loop stays free of atomics and allocations; only the
// counters the heartbeat samples live (visited, inflight, seen) are shared
// engine atomics.
var (
	mExploreRuns   = telemetry.NewCounter("mc.explore_runs")
	mSCExploreRuns = telemetry.NewCounter("mc.sc_explore_runs")
	mStates        = telemetry.NewCounter("mc.states_visited")
	mTransitions   = telemetry.NewCounter("mc.transitions_executed")
	mSleepPrunes   = telemetry.NewCounter("mc.sleep_set_prunes")
	mSteals        = telemetry.NewCounter("mc.steals")
	mSeenProbes    = telemetry.NewCounter("mc.seen_probes")
	mSeenStates    = telemetry.NewCounter("mc.seen_states")
	mFreelistHits  = telemetry.NewCounter("mc.freelist_hits")
	mTruncated     = telemetry.NewCounter("mc.truncated_runs")
	mWitnessRuns   = telemetry.NewCounter("mc.witness_runs") // counterexample searches, not in explore_runs
	mFrontierDepth = telemetry.NewHistogram("mc.frontier_depth")
	mMemHeadroom   = telemetry.NewGauge("mc.memcap_headroom")

	// Two-level seen-set metrics (see seen.go / spill.go). Hot/cold hits
	// count probes answered by the in-RAM tier vs. sealed runs; seals,
	// spill runs/bytes and quarantines describe the cold tier's life
	// cycle; seal latency is the pause a worker takes to sort and encode
	// a full hot tier.
	mSeenHotHits      = telemetry.NewCounter("mc.seen_hot_hits")
	mSeenColdHits     = telemetry.NewCounter("mc.seen_cold_hits")
	mSeenSeals        = telemetry.NewCounter("mc.seen_seals")
	mSpillRuns        = telemetry.NewCounter("mc.spill_runs")
	mSpillBytes       = telemetry.NewCounter("mc.spill_bytes")
	mSpillQuarantines = telemetry.NewCounter("mc.spill_quarantines")
	mSealLatency      = telemetry.NewHistogram("mc.seal_latency_ns")
)

const nShards = 64 // seen-set shards; fine-grained locking for the pool

// node is one frontier entry: a state plus the sleep-set context it was
// reached with. revisit != 0 marks a re-expansion restricted to that
// transition mask.
type node struct {
	s       *state
	sleep   uint32
	revisit uint32
}

type engine struct {
	prog   *ir.Program
	cfg    Config
	base   map[*ir.Global]int64
	fnIdx  map[*ir.Fn]int32
	gwords int

	shards      [nShards]seenShard
	shardBudget int64 // seen-set RAM budget per shard, in bytes
	hotMaxSlots int   // hot-tier slot cap derived from the budget
	spill       *store.Spill
	spillChs    [nSpillGroups]chan spillItem
	spillWG     sync.WaitGroup

	visited   atomic.Int64
	seen      atomic.Int64 // distinct states inserted into the seen set
	truncated atomic.Bool
	inflight  atomic.Int64
	hungry    atomic.Int32
	handoff   chan *node
	done      chan struct{}
	closeOnce sync.Once

	outMu    sync.Mutex
	outcomes map[string][]int64
	err      error
}

// workerCtx is the worker-local scratch that keeps the steady state of an
// exploration allocation-free: the frontier stack, reusable encode and
// outcome-key buffers, a reusable transition-analysis record (with its
// address arena), and freelists recycling the states and nodes the worker
// retires. Nodes handed off to other workers are recycled by the receiving
// worker; freelists never cross workers, so no locking is involved.
type workerCtx struct {
	local      []*node
	encBuf     []byte
	keyBuf     []byte
	an         analysis
	freeStates []*state
	freeNodes  []*node
	stats      workerStats
}

// workerStats is the worker-local metric accumulator: plain integers
// bumped in the hot loop (no atomics, no sharing) and flushed to the
// registry counters once, on the worker's own shard, when the worker
// retires.
type workerStats struct {
	states       int64 // states expanded (mirrors engine.visited)
	transitions  int64 // child transitions executed
	sleepPrunes  int64 // states pruned by the sleep-set seen protocol
	steals       int64 // nodes received over the handoff channel
	seenProbes   int64 // seen-set lookups
	freelistHits int64 // state/node shells served from the local freelist
	maxFrontier  int64 // peak local frontier depth
	maxMem       int64 // peak state arena size in words
}

// flush adds the accumulated statistics to the registry on the given
// shard (the worker's index, so concurrent workers never contend).
func (st *workerStats) flush(shard int) {
	mStates.Add(shard, st.states)
	mTransitions.Add(shard, st.transitions)
	mSleepPrunes.Add(shard, st.sleepPrunes)
	mSteals.Add(shard, st.steals)
	mSeenProbes.Add(shard, st.seenProbes)
	mFreelistHits.Add(shard, st.freelistHits)
	mFrontierDepth.Observe(shard, st.maxFrontier)
}

// statePool and nodePool recycle shells across explorations: a worker's
// freelist starts empty, and without a process-wide pool every fresh
// Explore would re-allocate its peak frontier (states live concurrently on
// the stack) even though cloneInto immediately resizes whatever it gets.
// States carry no engine- or program-specific invariants — cloneInto and
// pushFrame overwrite everything and reuse only slice capacity — so
// recycling across programs is safe.
var statePool = sync.Pool{New: func() any { return &state{} }}
var nodePool = sync.Pool{New: func() any { return &node{} }}

func (w *workerCtx) newState() *state {
	if n := len(w.freeStates); n > 0 {
		s := w.freeStates[n-1]
		w.freeStates = w.freeStates[:n-1]
		w.stats.freelistHits++
		return s
	}
	return statePool.Get().(*state)
}

func (w *workerCtx) putState(s *state) { w.freeStates = append(w.freeStates, s) }

func (w *workerCtx) newNode(s *state, sleep, revisit uint32) *node {
	var n *node
	if l := len(w.freeNodes); l > 0 {
		n = w.freeNodes[l-1]
		w.freeNodes = w.freeNodes[:l-1]
		w.stats.freelistHits++
	} else {
		n = nodePool.Get().(*node)
	}
	*n = node{s: s, sleep: sleep, revisit: revisit}
	return n
}

func (w *workerCtx) putNode(n *node) {
	n.s = nil
	w.freeNodes = append(w.freeNodes, n)
}

// release returns the worker's freelists to the process-wide pools when
// the worker retires, so the next exploration starts warm.
func (w *workerCtx) release() {
	for _, s := range w.freeStates {
		statePool.Put(s)
	}
	w.freeStates = nil
	for _, n := range w.freeNodes {
		nodePool.Put(n)
	}
	w.freeNodes = nil
}

// fnv1a hashes the canonical encoding for shard routing in exact mode.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// ExploreRuns returns the cumulative number of Explore invocations in this
// process. It exists for tests and telemetry: certifying N fence-placement
// variants of one program against a shared Baseline must advance it by
// exactly N+1 (one SC exploration plus one TSO exploration per variant).
//
// Deprecated: this is a read of the "mc.explore_runs" registry counter;
// new code should consume telemetry.Default().Snapshot() instead.
func ExploreRuns() int64 { return mExploreRuns.Value() }

// SCExploreRuns returns the cumulative number of SC-mode Explore
// invocations in this process — the explorations a warm baseline cache
// exists to avoid.
//
// Deprecated: this is a read of the "mc.sc_explore_runs" registry counter;
// new code should consume telemetry.Default().Snapshot() instead.
func SCExploreRuns() int64 { return mSCExploreRuns.Value() }

// newEngine builds an engine and the initial state for the given entry
// configuration (thread functions, or the program's main when nil).
func newEngine(p *ir.Program, threadFns []string, cfg Config) (*engine, *state, error) {
	cfg = cfg.withDefaults()
	p.Finalize()
	e := &engine{
		prog:     p,
		cfg:      cfg,
		base:     make(map[*ir.Global]int64),
		fnIdx:    make(map[*ir.Fn]int32, len(p.Funcs)),
		handoff:  make(chan *node, 4096),
		done:     make(chan struct{}),
		outcomes: make(map[string][]int64),
	}
	for i, f := range p.Funcs {
		e.fnIdx[f] = int32(i)
	}
	e.shardBudget, e.hotMaxSlots = seenBudget(cfg)

	// Layout globals exactly like tso.Run: address 0 stays unused so a zero
	// value is never a valid pointer.
	mem := []int64{0}
	for _, g := range p.Globals {
		e.base[g] = int64(len(mem))
		cells := make([]int64, g.Size)
		copy(cells, g.Init)
		mem = append(mem, cells...)
		e.gwords += g.Size
	}

	init := &state{mem: mem}
	if len(threadFns) > 0 {
		if len(threadFns) > MaxThreads {
			return nil, nil, fmt.Errorf("mc: %d thread functions exceed the %d-thread limit", len(threadFns), MaxThreads)
		}
		for _, name := range threadFns {
			fn := p.Fn(name)
			if fn == nil {
				return nil, nil, fmt.Errorf("mc: explore: no function %q", name)
			}
			init.threads = append(init.threads, thr{frames: []frm{newFrame(fn, nil, ir.NoReg)}})
		}
	} else {
		mainFn := p.Fn(p.Main)
		if mainFn == nil {
			return nil, nil, fmt.Errorf("mc: explore: program %q has no main function %q", p.Name, p.Main)
		}
		init.threads = []thr{{frames: []frm{newFrame(mainFn, nil, ir.NoReg)}}}
	}
	return e, init, nil
}

// Explore enumerates the reachable final states of the program under
// cfg.Mode. With threadFns set, the named functions run concurrently from
// the initial global state (the litmus configuration, compatible with
// tso.Explore). With threadFns nil, exploration starts from the program's
// main function and follows Spawn/Join/Call, so whole corpus programs can
// be checked. A Truncated result means the state budget ran out; callers
// must treat it as inconclusive, never as a verdict.
func Explore(p *ir.Program, threadFns []string, cfg Config) (*StateSet, error) {
	return ExploreCtx(context.Background(), p, threadFns, cfg)
}

// ExploreCtx is Explore bounded by a context: when ctx is cancelled the
// workers abandon the exploration promptly — every in-flight state stops
// producing children, the frontier drains uncounted — and the call returns
// ctx's error. Cancellation reuses the budget-exhaustion drain path, so no
// per-state ctx polling taxes the hot loop.
func ExploreCtx(ctx context.Context, p *ir.Program, threadFns []string, cfg Config) (*StateSet, error) {
	mExploreRuns.Inc(0)
	if cfg.Mode == tso.SC {
		mSCExploreRuns.Inc(0)
	}
	start := time.Now()
	e, init, err := newEngine(p, threadFns, cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg
	e.startSpill()
	e.inflight.Store(1)
	e.handoff <- &node{s: init}

	// The watcher turns a ctx firing into an engine failure: e.fail sets
	// the drain flag every worker polls, so the frontier empties within one
	// expansion per worker. It is joined after the workers so the final
	// e.err read cannot race a late fail.
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			e.fail(ctx.Err())
		case <-e.done:
		}
	}()

	// The heartbeat streams Progress events while workers run; it exits on
	// e.done, which is closed before the last worker returns, so joining it
	// after wg.Wait cannot deadlock and the final (synchronous) event below
	// never races a ticker-driven one.
	pc, hasProgress := progressFrom(ctx)
	var hbDone chan struct{}
	if hasProgress {
		hbDone = make(chan struct{})
		go func() {
			defer close(hbDone)
			e.heartbeat(pc, start)
		}()
	}

	var wg sync.WaitGroup
	var maxMem atomic.Int64
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			wctx := &workerCtx{encBuf: make([]byte, 0, 256)}
			e.worker(wctx)
			wctx.stats.flush(shard)
			for m := wctx.stats.maxMem; ; {
				cur := maxMem.Load()
				if m <= cur || maxMem.CompareAndSwap(cur, m) {
					break
				}
			}
			wctx.release()
		}(w)
	}
	wg.Wait()
	<-watchDone
	e.finishSeen()
	mSeenStates.Add(0, e.seen.Load())
	if e.cfg.MemoryCap > 0 {
		mMemHeadroom.Set(0, int64(e.cfg.MemoryCap)-maxMem.Load())
	} else {
		// Always write the gauge: an uncapped run must not leave a stale
		// headroom value from an earlier capped run in the same process.
		mMemHeadroom.Set(0, -1)
	}

	if e.err != nil {
		if hbDone != nil {
			<-hbDone
		}
		return nil, e.err
	}
	res := &StateSet{
		Outcomes:  e.outcomes,
		Visited:   e.visited.Load(),
		Truncated: e.truncated.Load(),
	}
	if res.Truncated {
		mTruncated.Inc(0)
		// The last rung of the degradation ladder: the budget is truly
		// exhausted and the verdict is explicitly three-valued.
		store.NoteDegraded(store.DegradeTruncated)
	}
	if telemetry.TraceEnabled() {
		telemetry.Emit(telemetry.Span{
			Name:  "explore " + p.Name + "/" + cfg.Mode.String(),
			Cat:   "mc",
			Track: telemetry.NextTrack(),
			Start: start,
			Dur:   time.Since(start),
			Args: []telemetry.Arg{
				{Key: "visited", Val: res.Visited},
				{Key: "outcomes", Val: int64(len(res.Outcomes))},
				{Key: "workers", Val: int64(cfg.Workers)},
			},
		})
	}
	if hasProgress {
		<-hbDone
		elapsed := time.Since(start)
		var rate float64
		if s := elapsed.Seconds(); s > 0 {
			rate = float64(res.Visited) / s
		}
		pc.fn(Progress{
			Program:      p.Name,
			Mode:         cfg.Mode,
			Visited:      res.Visited,
			Frontier:     e.inflight.Load(),
			Seen:         e.seen.Load(),
			Elapsed:      elapsed,
			StatesPerSec: rate,
			Final:        true,
		})
	}
	return res, nil
}

func (e *engine) worker(w *workerCtx) {
	for {
		var n *node
		if len(w.local) > 0 {
			n = w.local[len(w.local)-1]
			w.local = w.local[:len(w.local)-1]
		} else {
			e.hungry.Add(1)
			select {
			case n = <-e.handoff:
				e.hungry.Add(-1)
				w.stats.steals++
			case <-e.done:
				e.hungry.Add(-1)
				return
			}
		}
		e.expandSafe(w, n)
		// The node and its state are dead once expanded (children are
		// cloned, outcomes copied): recycle both.
		w.putState(n.s)
		w.putNode(n)
		if e.inflight.Add(-1) == 0 {
			e.closeOnce.Do(func() { close(e.done) })
		}
		// Feed hungry workers from the cold (root-near) end of the stack:
		// those nodes head the largest unexplored subtrees.
	offload:
		for len(w.local) > 1 && e.hungry.Load() > 0 {
			select {
			case e.handoff <- w.local[0]:
				w.local = w.local[1:]
			default:
				break offload
			}
		}
	}
}

// TestHookExpand, when non-nil, runs at the top of every state expansion
// with the running visited count — the chaos suite's seam for injecting a
// worker panic mid-exploration. It executes inside expandSafe's recover
// scope, once per state, outside the per-transition hot loop.
var TestHookExpand func(visited int64)

// expandSafe isolates one state expansion: a panic anywhere below
// (including the test hook) is recovered into a structured InternalError
// and turned into an engine failure, which drains the frontier exactly
// like cancellation does. The worker then retires the node normally, so
// inflight accounting and freelists stay consistent — the pool drains
// cleanly, sibling explorations keep running, and the process never dies.
func (e *engine) expandSafe(w *workerCtx, n *node) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(AsInternalError("mc: exploration worker", r))
		}
	}()
	if TestHookExpand != nil {
		TestHookExpand(e.visited.Load())
	}
	e.expand(w, n)
}

func (e *engine) fail(err error) {
	e.outMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.outMu.Unlock()
	e.truncated.Store(true) // drain the frontier quickly
}

// expand explores one frontier node: records terminal outcomes, computes
// the transition set to fire (persistent singleton, fresh sleep complement,
// or revisit delta), executes each transition and enqueues the children
// that survive the seen-set filter.
func (e *engine) expand(w *workerCtx, n *node) {
	if e.truncated.Load() {
		return // budget blown or failed: drain the frontier uncounted
	}
	v := e.visited.Add(1)
	w.stats.states++
	if v > e.cfg.MaxStates {
		e.truncated.Store(true)
		return
	}
	s := n.s
	if m := int64(len(s.mem)); m > w.stats.maxMem {
		w.stats.maxMem = m
	}
	if d := int64(len(w.local)); d > w.stats.maxFrontier {
		w.stats.maxFrontier = d
	}
	if s.terminal() {
		e.record(w, s, "")
		return
	}
	a := &w.an
	e.analyze(s, a)
	if a.enabled == 0 {
		e.record(w, s, "!deadlock")
		return
	}

	sleep := n.sleep & a.enabled
	var T uint32
	switch {
	case n.revisit != 0:
		T = n.revisit & a.enabled
	case e.cfg.NoPOR:
		T = a.enabled
		sleep = 0
	default:
		// Persistent singleton: an invisible, non-branching transition is
		// independent of everything other threads can ever do before it
		// runs, so it can be fired alone. Br/Jmp are excluded so that every
		// cycle of the state graph retains a fully-expanded state (the
		// cycle proviso); without that, a spinning thread could starve the
		// transitions of its peers out of the reduced graph.
		for bit := 0; bit < 2*MaxThreads; bit++ {
			if a.enabled&(1<<uint(bit)) != 0 && a.fps[bit].det {
				T = 1 << uint(bit)
				break
			}
		}
		if T == 0 {
			T = a.enabled &^ sleep
		}
	}

	cur := sleep
	for bit := 0; bit < 2*MaxThreads; bit++ {
		tb := uint32(1) << uint(bit)
		if T&tb == 0 {
			continue
		}
		child := w.newState()
		w.stats.transitions++
		cloneInto(child, s)
		if bit < MaxThreads {
			if err := e.applyStep(child, bit); err != nil {
				e.fail(err)
				return
			}
		} else {
			applyDrain(child, bit-MaxThreads)
		}
		// The child sleeps on every already-covered transition that
		// commutes with the one just fired.
		var childSleep uint32
		for sb := 0; sb < 2*MaxThreads; sb++ {
			if cur&(1<<uint(sb)) != 0 && indep(a, sb, bit) {
				childSleep |= 1 << uint(sb)
			}
		}
		e.enqueue(w, child, childSleep)
		cur |= tb
	}
}

// enqueue runs the seen-set protocol for a freshly produced state and, if
// it needs (re-)expansion, pushes it on the worker's frontier; pruned
// states go back on the worker's freelist.
func (e *engine) enqueue(w *workerCtx, s *state, sleep uint32) {
	if e.truncated.Load() {
		w.putState(s)
		return
	}
	w.encBuf = e.encode(s, w.encBuf)
	w.stats.seenProbes++

	var need bool
	var revisit uint32
	if e.cfg.ExactSeen {
		sh := &e.shards[fnv1a(w.encBuf)%nShards]
		sh.mu.Lock()
		if sh.m == nil {
			sh.m = make(map[string]uint32)
		}
		prev, seen := sh.m[string(w.encBuf)] // no-copy map probe
		switch {
		case !seen:
			sh.m[string(w.encBuf)] = sleep
			need = true
		case prev&^sleep == 0:
			// Already covered for a sleep set at least as permissive: prune.
		default:
			// Previously slept transitions wake up: expand just those.
			sh.m[string(w.encBuf)] = prev & sleep
			need, revisit = true, prev&^sleep
		}
		sh.mu.Unlock()
	} else {
		h := hash128(w.encBuf)
		si := int(h.hi % nShards)
		sh := &e.shards[si]
		sh.mu.Lock()
		need, revisit = sh.visit(e, si, h, sleep)
		sh.mu.Unlock()
	}

	if need {
		if revisit == 0 {
			e.seen.Add(1) // first sighting: the table grew by one state
		}
		e.inflight.Add(1)
		w.local = append(w.local, w.newNode(s, sleep, revisit))
	} else {
		w.stats.sleepPrunes++
		w.putState(s)
	}
}

// record registers a terminal (or deadlocked) state's global values. The
// outcome key is rendered into the worker's scratch buffer and the map is
// probed before anything is copied, so duplicate terminal states — the
// overwhelming majority — allocate nothing.
func (e *engine) record(w *workerCtx, s *state, suffix string) {
	w.keyBuf = appendOutcomeKey(w.keyBuf[:0], s.mem[1:1+e.gwords], s.failed, suffix)
	e.outMu.Lock()
	if _, ok := e.outcomes[string(w.keyBuf)]; !ok {
		vec := append([]int64(nil), s.mem[1:1+e.gwords]...)
		e.outcomes[string(w.keyBuf)] = vec
	}
	e.outMu.Unlock()
}

// Keys returns the printable outcome keys, sorted.
func (s *StateSet) Keys() []string {
	keys := make([]string, 0, len(s.Outcomes))
	for k := range s.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
