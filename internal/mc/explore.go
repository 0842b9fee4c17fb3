package mc

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace/internal/ir"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// Registry metrics of the model checker. Workers accumulate plain local
// counts (workerStats) and flush them once per exploration, so the hot
// loop stays free of atomics and allocations; only the counters the
// heartbeat samples live (visited, inflight, seen) are shared engine
// atomics.
var (
	mExploreRuns   = telemetry.NewCounter("mc.explore_runs")
	mSCExploreRuns = telemetry.NewCounter("mc.sc_explore_runs")
	mStates        = telemetry.NewCounter("mc.states_visited")
	mTransitions   = telemetry.NewCounter("mc.transitions_executed")
	mMergedSteps   = telemetry.NewCounter("mc.merged_steps")
	mSleepPrunes   = telemetry.NewCounter("mc.sleep_set_prunes")
	mSteals        = telemetry.NewCounter("mc.steals")
	mSeenProbes    = telemetry.NewCounter("mc.seen_probes")
	mSeenStates    = telemetry.NewCounter("mc.seen_states")
	mFreelistHits  = telemetry.NewCounter("mc.freelist_hits")
	mTruncated     = telemetry.NewCounter("mc.truncated_runs")
	mWitnessRuns   = telemetry.NewCounter("mc.witness_runs") // counterexample schedule searches, in no other mc metric
	mFrontierDepth = telemetry.NewHistogram("mc.frontier_depth")
	mMemHeadroom   = telemetry.NewGauge("mc.memcap_headroom")
)

const nShards = 64 // seen-set shards; fine-grained locking for the pool

// node is one frontier entry: a state plus the sleep-set context it was
// reached with. revisit != 0 marks a re-expansion restricted to that
// transition mask. path, kept only by the schedule search, leads to s.
type node struct {
	s       *state
	sleep   uint32
	revisit uint32
	path    *link
}

// link ends a path from the root with one transition bit. Links are
// immutable, so siblings share their parent's.
type link struct {
	parent *link
	bit    uint8
}

type engine struct {
	prog    *ir.Program
	cfg     Config
	m       *tso.Machine
	live    [][][][]ir.Reg // liveTables(prog)
	retreat [][]bool       // retreatTables(prog)

	shards [nShards]seenShard

	visited   atomic.Int64
	seen      atomic.Int64 // distinct states inserted into the seen set
	truncated atomic.Bool
	inflight  atomic.Int64
	hungry    atomic.Int32 // workers waiting on handoff
	handoff   chan *node   // one slot per worker: nodes for waiting workers only
	done      chan struct{}
	closeOnce sync.Once

	// yield, set while a progress sink is installed, makes every worker
	// call runtime.Gosched every 1,024 states. On a single P the heartbeat
	// otherwise runs only when the runtime preempts a worker, after 10 ms
	// at the earliest, and a short exploration could end before it
	// streams one heartbeat.
	yield bool

	outMu    sync.Mutex
	outcomes map[string][]int64
	err      error
	workers  []*workerCtx // set by explore; each keeps its statistics

	// Path tracking, on for the schedule search only (paths != nil):
	// record saves the path that first reaches each targets key.
	targets map[string]bool
	paths   map[string]*link
}

// workerCtx is the worker-local scratch that keeps the steady state of an
// exploration allocation-free: the frontier stack, reusable word buffer
// (thread components, and encodings for the ExactSeen oracle) and
// outcome-key buffer, a reusable transition-analysis record (with its
// address arena), and freelists recycling the states and nodes the worker
// retires. Nodes handed off to other workers are recycled by the receiving
// worker; freelists never cross workers, so no locking is involved.
type workerCtx struct {
	local      []*node
	encBuf     []uint64
	keyBuf     []byte
	an         analysis
	freeStates []*state
	freeNodes  []*node
	stats      workerStats
}

// workerStats is the worker-local metric accumulator: plain integers
// bumped in the hot loop (no atomics, no sharing) and flushed to the
// registry counters once, after the exploration.
type workerStats struct {
	states       int64 // states expanded (mirrors engine.visited)
	transitions  int64 // children produced by expand
	mergedSteps  int64 // det steps normalize fired in place
	sleepPrunes  int64 // states pruned by the sleep-set seen protocol
	steals       int64 // nodes received over the handoff channel
	seenProbes   int64 // seen-set lookups
	freelistHits int64 // state/node shells served from the local freelist
	maxFrontier  int64 // peak local frontier depth
	maxMem       int64 // peak state arena size in words
}

// flush adds the accumulated statistics to the registry.
func (st *workerStats) flush() {
	mStates.Add(st.states)
	mTransitions.Add(st.transitions)
	mMergedSteps.Add(st.mergedSteps)
	mSleepPrunes.Add(st.sleepPrunes)
	mSteals.Add(st.steals)
	mSeenProbes.Add(st.seenProbes)
	mFreelistHits.Add(st.freelistHits)
	mFrontierDepth.Observe(st.maxFrontier)
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

func (w *workerCtx) newNode(s *state, sleep, revisit uint32, path *link) *node {
	var n *node
	if l := len(w.freeNodes); l > 0 {
		n = w.freeNodes[l-1]
		w.freeNodes = w.freeNodes[:l-1]
		w.stats.freelistHits++
	} else {
		n = nodePool.Get().(*node)
	}
	*n = node{s: s, sleep: sleep, revisit: revisit, path: path}
	return n
}

func (w *workerCtx) putNode(n *node) {
	*n = node{}
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

// newEngine builds an engine and the initial state for the given entry
// configuration (thread functions, or the program's main when nil).
func newEngine(p *ir.Program, threadFns []string, cfg Config) (*engine, *state, error) {
	cfg = cfg.withDefaults()
	p.Finalize()
	e := &engine{
		prog:     p,
		cfg:      cfg,
		m:        tso.NewMachine(p, cfg.Mode, cfg.BufferCap, cfg.MemoryCap),
		live:     liveTables(p),
		retreat:  retreatTables(p),
		handoff:  make(chan *node, cfg.Workers),
		done:     make(chan struct{}),
		outcomes: make(map[string][]int64),
	}

	init := &state{State: e.m.NewState()}
	if len(threadFns) > 0 {
		if len(threadFns) > MaxThreads {
			return nil, nil, fmt.Errorf("mc: %d thread functions exceed the %d-thread limit", len(threadFns), MaxThreads)
		}
		for _, name := range threadFns {
			fn := e.m.Func(name)
			if fn == nil {
				return nil, nil, fmt.Errorf("mc: explore: no function %q", name)
			}
			e.m.StartThread(&init.State, fn)
		}
	} else {
		mainFn := e.m.Func(p.Main)
		if mainFn == nil {
			return nil, nil, fmt.Errorf("mc: explore: program %q has no main function %q", p.Name, p.Main)
		}
		e.m.StartThread(&init.State, mainFn)
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
// per-state ctx polling taxes the hot loop. A context that is already done
// starts no exploration (and counts none in mc.explore_runs): the call
// returns ctx's error at once, where a started exploration of a small
// state space could finish before its workers notice the cancellation.
// ExploreCtx also does an exploration's accounting: the mc metrics, the
// degradation note of a truncated run and the trace span.
func ExploreCtx(ctx context.Context, p *ir.Program, threadFns []string, cfg Config) (*StateSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mExploreRuns.Inc()
	if cfg.Mode == tso.SC {
		mSCExploreRuns.Inc()
	}
	start := time.Now()
	e, init, err := newEngine(p, threadFns, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.explore(ctx, init, start)
	e.releaseSeen()
	var maxMem int64
	for _, w := range e.workers {
		w.stats.flush()
		maxMem = max(maxMem, w.stats.maxMem)
	}
	mSeenStates.Add(e.seen.Load())
	// Always write the gauge: an uncapped run must not leave a stale
	// headroom value from an earlier capped run in the same process.
	headroom := int64(-1)
	if e.cfg.MemoryCap > 0 {
		headroom = int64(e.cfg.MemoryCap) - maxMem
	}
	mMemHeadroom.Set(headroom)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		mTruncated.Inc()
	}
	if telemetry.TraceEnabled() {
		telemetry.Emit(telemetry.Span{
			Name:  "explore " + p.Name + "/" + e.cfg.Mode.String(),
			Cat:   "mc",
			Track: telemetry.NextTrack(),
			Start: start,
			Dur:   time.Since(start),
			Args: []telemetry.Arg{
				{Key: "visited", Val: res.Visited},
				{Key: "outcomes", Val: int64(len(res.Outcomes))},
				{Key: "workers", Val: int64(e.cfg.Workers)},
			},
		})
	}
	return res, nil
}

// explore runs the worker pool over the states reachable from init and
// collects the result, streaming progress when ctx carries a sink; start
// is when the exploration began. It leaves the workers' statistics in
// e.workers for ExploreCtx to account, so the schedule search, which
// calls explore directly, stays out of the metrics.
func (e *engine) explore(ctx context.Context, init *state, start time.Time) (*StateSet, error) {
	p, cfg := e.prog, e.cfg
	e.workers = make([]*workerCtx, cfg.Workers)
	for w := range e.workers {
		e.workers[w] = &workerCtx{encBuf: make([]uint64, 0, 64)}
	}
	w0 := e.workers[0]
	if _, _, ok := e.normalize(w0, init, 0, 0); ok {
		w0.encBuf = e.components(init, w0.encBuf)
		// The root starts on worker 0's own frontier, not the handoff
		// channel, so mc.steals counts only nodes one worker passed to
		// another.
		e.inflight.Store(1)
		w0.local = append(w0.local, &node{s: init})
	} else {
		e.closeOnce.Do(func() { close(e.done) })
	}

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
	e.yield = hasProgress
	var hbDone chan struct{}
	if hasProgress {
		hbDone = make(chan struct{})
		go func() {
			defer close(hbDone)
			e.heartbeat(pc, start)
		}()
	}

	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(w)
			w.release()
		}()
	}
	wg.Wait()
	<-watchDone

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
		if e.yield && w.stats.states%1024 == 0 {
			runtime.Gosched()
		}
		// The node and its state are dead once expanded (children are
		// cloned, outcomes copied): recycle both.
		w.putState(n.s)
		w.putNode(n)
		if e.inflight.Add(-1) == 0 {
			e.closeOnce.Do(func() { close(e.done) })
		}
		// Feed waiting workers from the cold (root-near) end of the stack,
		// one node per worker waiting on the channel: those nodes head the
		// largest unexplored subtrees, and the rest stay here, where their
		// states are hot.
	offload:
		for len(w.local) > 1 && int(e.hungry.Load()) > len(e.handoff) {
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
// the transition set to fire (fresh sleep complement or revisit delta),
// executes each transition and enqueues the children that survive the
// seen-set filter. Outside NoPOR the node is in normal form, so no det
// step is enabled and every fired transition is a real choice.
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
	if m := int64(len(s.Mem)); m > w.stats.maxMem {
		w.stats.maxMem = m
	}
	if d := int64(len(w.local)); d > w.stats.maxFrontier {
		w.stats.maxFrontier = d
	}
	if s.terminal() {
		e.record(w, n, "")
		return
	}
	a := &w.an
	e.analyze(s, a)
	if a.enabled == 0 {
		e.record(w, n, "!deadlock")
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
		T = a.enabled &^ sleep
	}

	cur := sleep
	for todo := T; todo != 0; todo &= todo - 1 {
		bit := bits.TrailingZeros32(todo)
		// The child sleeps on every already-covered transition that
		// commutes with the one fired.
		var childSleep uint32
		for c := cur; c != 0; c &= c - 1 {
			if sb := bits.TrailingZeros32(c); indep(a, sb, bit) {
				childSleep |= 1 << uint(sb)
			}
		}
		child := w.newState()
		w.stats.transitions++
		childSleep, ok := e.fire(w, a, s, child, bit, childSleep)
		if !ok {
			// The exploration failed or ran out of budget: the frontier
			// drains.
			w.putState(child)
			return
		}
		var path *link
		if e.paths != nil {
			path = &link{parent: n.path, bit: uint8(bit)}
		}
		e.enqueue(w, child, childSleep, path)
		cur |= 1 << uint(bit)
	}
}

// fire produces in child the successor of s by transition bit, one that
// a, s's analysis, enables: it copies s into child, executes the
// transition, brings the copy into normal form and updates the
// fingerprint components the copy carries. The memory delta comes from
// the transition's write set, and the threads recomputed are the one that
// fired, every one normalize stepped and any spawned. sleep is the
// child's sleep set, returned as normalize leaves it. ok is false when
// the child must be dropped: a step failed, or the exploration is over.
func (e *engine) fire(w *workerCtx, a *analysis, s, child *state, bit int, sleep uint32) (_ uint32, ok bool) {
	cloneInto(child, s)
	writes := a.writes(bit)
	child.memDelta(writes, false)
	tid := bit % MaxThreads
	if bit < MaxThreads {
		if err := e.step(child, tid); err != nil {
			e.fail(err)
			return 0, false
		}
	} else {
		child.Drain(tid)
	}
	child.memDelta(writes, true)
	if e.truncated.Load() {
		return 0, false
	}
	sleep, dirty, ok := e.normalize(w, child, sleep, resumeFrom(child, tid))
	if !ok {
		return 0, false
	}
	w.encBuf = e.rehash(child, dirty|stepBit(tid), w.encBuf)
	return sleep, true
}

// enqueue runs the seen-set protocol on a state fire produced and, if it
// needs (re-)expansion, pushes it on the worker's frontier; a pruned state
// goes back on the worker's freelist. path is the node's path from the
// root.
func (e *engine) enqueue(w *workerCtx, s *state, sleep uint32, path *link) {
	w.stats.seenProbes++

	var need bool
	var revisit uint32
	if e.cfg.ExactSeen {
		// The oracle keys by the encoding's bytes; keyBuf is free scratch
		// until record renders the next outcome key into it. Shards are
		// routed by a hash of the encoding itself, not by the carried
		// fingerprint this mode exists to check.
		w.encBuf = e.encode(s, w.encBuf)
		w.keyBuf = appendWordBytes(w.keyBuf[:0], w.encBuf)
		sh := &e.shards[hash128w(w.encBuf).hi%nShards]
		sh.mu.Lock()
		if sh.m == nil {
			sh.m = make(map[string]uint32)
		}
		prev, seen := sh.m[string(w.keyBuf)] // no-copy map probe
		switch {
		case !seen:
			sh.m[string(w.keyBuf)] = sleep
			need = true
		case prev&^sleep == 0:
			// Already covered for a sleep set at least as permissive: prune.
		default:
			// Previously slept transitions wake up: expand just those.
			sh.m[string(w.keyBuf)] = prev & sleep
			need, revisit = true, prev&^sleep
		}
		sh.mu.Unlock()
	} else {
		h := fingerprint(s)
		sh := &e.shards[h.hi%nShards]
		sh.mu.Lock()
		need, revisit = sh.visit(h, sleep)
		sh.mu.Unlock()
	}

	if need {
		if revisit == 0 {
			e.seen.Add(1) // first sighting: the table grew by one state
		}
		e.inflight.Add(1)
		w.local = append(w.local, w.newNode(s, sleep, revisit, path))
	} else {
		w.stats.sleepPrunes++
		w.putState(s)
	}
}

// normalize merges invisible steps: while some thread's next step is det,
// it fires the lowest-numbered such thread in place, so only the state
// where the chain ends is fingerprinted, stored and expanded. A det step
// is an enabled step with no effect on shared memory (stepFP reports it
// local) that is neither a load forwarded from its thread's store buffer
// nor a retreating branch (see detStep): it commutes with every transition
// of every other thread, so firing it alone loses no final state, and it
// cannot wake or disable anyone, so it leaves the other threads' sleep
// bits as they are and clears only its own thread's. A forwarded load is
// local but would not commute with its own thread's drain followed by
// another thread's store. A retreating branch — a Br or Jmp whose block
// has a successor at or before it in reverse postorder — is never det:
// along the tree, forward and cross edges of a depth-first search the
// reverse-postorder index strictly increases, so every closed walk of a
// CFG takes a retreating edge. Every cycle of the state graph, and every
// endless register-only loop, therefore keeps a stored, fully expanded
// state (the cycle proviso), and a spinning thread cannot starve its peers
// out of the reduced graph. Forward branches (if/else arms, loop exits,
// early returns) merge like any other local step. A chain still ends
// unless a thread recurses forever without taking a retreating branch,
// growing frames; a chain longer than cfg.MaxStates truncates the
// exploration like the state budget does. NoPOR states stay as produced.
// The caller promises that no thread below from has a det step in s. It
// returns the sleep set and, in dirty, the step bits of the threads it
// stepped (a det step writes no memory, so those threads hold everything
// it changed). ok is false when the state must be dropped: the chain hit
// the budget or a step failed.
func (e *engine) normalize(w *workerCtx, s *state, sleep uint32, from int) (_, dirty uint32, ok bool) {
	if e.cfg.NoPOR {
		return sleep, 0, true
	}
	for chain := int64(0); ; chain++ {
		tid := e.detThread(s, from)
		if tid < 0 {
			return sleep, dirty, true
		}
		if chain == e.cfg.MaxStates {
			e.truncated.Store(true)
			return 0, 0, false
		}
		if err := e.step(s, tid); err != nil {
			e.fail(err)
			return 0, 0, false
		}
		sleep &^= stepBit(tid) | drainBit(tid)
		dirty |= stepBit(tid)
		w.stats.mergedSteps++
		from = resumeFrom(s, tid)
	}
}

// resumeFrom is where the det scan resumes after a transition of thread
// tid produced s from a state in which no thread below tid had a det
// step. Whether a step is det depends only on its own thread, except that
// a Join waits for its target: so the transition gave a det step only to
// tid itself, to a thread it spawned (numbered above it) or, when it
// finished tid, to a thread joining it, anywhere.
func resumeFrom(s *state, tid int) int {
	if s.Threads[tid].Done {
		return 0
	}
	return tid
}

// detThread returns the lowest-numbered thread, from from on, whose next
// step is det in s (as normalize defines it), or -1 when there is none.
func (e *engine) detThread(s *state, from int) int {
	for tid := from; tid < len(s.Threads); tid++ {
		if stepEnabled(s, tid) && e.detStep(&s.Threads[tid]) {
			return tid
		}
	}
	return -1
}

// detStep reports whether the next step of t, a thread whose step is
// enabled, is det. It decides from the instruction kind, the retreat table
// and t's own buffer alone, where stepFP would build a footprint: the
// steps stepFP reports local, less loads (local only when forwarded, and
// a forwarded load is not det) and retreating branches.
func (e *engine) detStep(t *tso.Thread) bool {
	f := t.Top()
	in := f.Blk.Instrs[f.Idx]
	switch in.Kind {
	case ir.Const, ir.Move, ir.BinOp, ir.AddrOf, ir.Gep, ir.Assert, ir.Print, ir.Call, ir.Join:
		return true
	case ir.Br, ir.Jmp:
		return !e.retreat[f.Fn.ID][f.Blk.ID()]
	case ir.Ret:
		// Thread exit publishes the store buffer, which is empty under SC.
		return len(t.Frames) > 1 || len(t.Buf) == 0
	case ir.Store, ir.StorePtr:
		// The store lands in the buffer, unless it is full and forces the
		// oldest entry out; under SC it writes memory.
		return e.cfg.Mode == tso.TSO && len(t.Buf) < e.cfg.BufferCap
	case ir.Fence:
		return ir.FenceKind(in.Imm) != ir.FenceFull || len(t.Buf) == 0
	}
	return false // loads, CAS, FetchAdd, Alloca, Malloc, Spawn
}

// record registers the global values of n's terminal (or deadlocked)
// state. The outcome key is rendered into the worker's scratch buffer and
// the map is probed before anything is copied, so duplicate terminal
// states — the overwhelming majority — allocate nothing. When tracking,
// a target's first sighting saves n's path, and the last target found
// drains the frontier.
func (e *engine) record(w *workerCtx, n *node, suffix string) {
	globals := e.m.Globals(&n.s.State)
	w.keyBuf = appendOutcomeKey(w.keyBuf[:0], globals, n.s.failed, suffix)
	e.outMu.Lock()
	if _, ok := e.outcomes[string(w.keyBuf)]; !ok {
		key := string(w.keyBuf)
		e.outcomes[key] = append([]int64(nil), globals...)
		if e.targets[key] {
			e.paths[key] = n.path
			if len(e.paths) == len(e.targets) {
				e.truncated.Store(true)
			}
		}
	}
	e.outMu.Unlock()
}
