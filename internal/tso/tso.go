// Package tso executes ir programs under Sequential Consistency or under
// x86-TSO (per-thread FIFO store buffers with store-to-load forwarding).
// It stands in for the paper's hardware testbed: fences placed by the
// analyses have exactly their x86 semantics here — a full fence drains the
// executing thread's store buffer (and costs time), a compiler barrier is
// free at run time, and atomic read-modify-writes behave like LOCK-prefixed
// instructions (drain, then act on memory atomically).
//
// The machine is faithful to TSO's relaxation surface: stores retire in
// order, loads execute in program order and forward from the local buffer,
// so the only visible reordering is store→load — which is why, as in the
// paper (§4.4), only w→r orderings ever need a full fence.
//
// Machine.Step is the module's one per-instruction semantics. Run, the
// simulator behind Figures 7–10, drives it with a scheduler and a cycle
// cost model; package mc, the model checker behind every certification
// verdict, drives it with an exhaustive explorer. Explore is a separate,
// deliberately naive interpreter for flat litmus threads, kept as the
// independent reference the model checker's tests compare against.
//
// Run provides two schedulers. MinTime (the default) always steps the
// runnable thread with the smallest accumulated cycle count, which makes
// the simulation a deterministic parallel-time model: the outcome's
// MaxCycles is the simulated wall-clock of the run and is what the
// Figure 10 experiment reports. Random is an adversarial scheduler for
// correctness testing.
//
// A run allocates for its setup but not per simulated step: the scheduler
// builds no ready list, drains shift the store buffer in place, and calls
// reuse the register file left at their frame depth.
package tso

import (
	"fmt"
	"math/rand"

	"fenceplace/internal/ir"
)

// Mode selects the memory model.
type Mode int

const (
	// TSO runs with per-thread FIFO store buffers (x86-like).
	TSO Mode = iota
	// SC retires every store to memory immediately.
	SC
)

func (m Mode) String() string {
	if m == SC {
		return "SC"
	}
	return "TSO"
}

// Sched selects the thread scheduler.
type Sched int

const (
	// MinTime steps the runnable thread with the fewest accumulated
	// cycles: a deterministic parallel-time simulation.
	MinTime Sched = iota
	// Random picks uniformly among runnable threads.
	Random
)

// Policy controls when buffered stores voluntarily drain to memory.
type Policy int

const (
	// DrainRandom drains one entry with DrainPercent probability after
	// each step of the owning thread.
	DrainRandom Policy = iota
	// DrainLazy never drains voluntarily: stores sit in the buffer until a
	// fence, an RMW, buffer pressure, or thread exit forces them out. This
	// is the adversarial policy that maximizes store→load reordering.
	DrainLazy
	// DrainEager drains the whole buffer after every step, making TSO
	// behave like SC (useful as a differential-testing oracle).
	DrainEager
)

// CostModel assigns simulated cycle costs to operations. The absolute
// numbers are loosely calibrated to a small x86 core; only their ratios
// matter for the normalized Figure 10 comparison.
type CostModel struct {
	ALU          int64 // arithmetic, moves, constants
	Branch       int64
	LoadMem      int64 // load served from memory
	LoadFwd      int64 // load forwarded from the store buffer
	Store        int64 // store issued (into the buffer or memory)
	FullFence    int64 // base cost of a full fence
	FencePerSlot int64 // extra cost per buffered entry drained by a fence
	RMW          int64 // CAS / FetchAdd (locked instruction)
	Call         int64 // call / return / spawn / join overhead
}

// DefaultCosts returns the cost model used by the experiments.
func DefaultCosts() CostModel {
	return CostModel{
		ALU: 1, Branch: 1,
		LoadMem: 3, LoadFwd: 1, Store: 1,
		FullFence: 40, FencePerSlot: 3,
		RMW: 30, Call: 5,
	}
}

// Tracer observes a run's memory accesses and thread lifecycle events. The
// happens-before race checker (package hb) is its main client. A
// read-modify-write reports two Access events: the read, then the write.
type Tracer interface {
	// Access reports a shared-memory access by thread tid executing in.
	Access(tid int, in *ir.Instr, addr int64, write bool)
	// Spawn reports that parent created child.
	Spawn(parent, child int)
	// Join reports that parent observed child's completion.
	Join(parent, child int)
}

// Config parameterizes a run.
type Config struct {
	Mode         Mode
	Sched        Sched
	Policy       Policy
	DrainPercent int   // DrainRandom probability in percent (default 30)
	BufferCap    int   // store buffer capacity (default 16)
	Seed         int64 // RNG seed for Random scheduling / DrainRandom
	MaxSteps     int64 // livelock guard (default 20M)
	MemoryCap    int   // arena limit in words (0: DefaultMemoryCap; negative: uncapped)
	Costs        CostModel
	Tracer       Tracer // optional run observer
}

func (c Config) withDefaults() Config {
	if c.DrainPercent == 0 {
		c.DrainPercent = 30
	}
	if c.BufferCap == 0 {
		c.BufferCap = 16
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 20_000_000
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	return c
}

// Outcome reports the result of one run.
type Outcome struct {
	Program    string
	Failures   []string // assertion failures, in detection order
	Deadlock   bool     // no runnable thread, or MaxSteps exceeded
	Err        error    // runtime error (bounds, arena exhaustion, ...)
	Steps      int64
	MaxCycles  int64 // simulated parallel time: max per-thread cycles
	SumCycles  int64 // total work across threads
	FullFences int64 // dynamically executed full fences
	RMWs       int64
	Printed    []int64

	globals map[string][]int64
}

// Global returns the final value of a scalar global.
func (o *Outcome) Global(name string) int64 {
	if vs, ok := o.globals[name]; ok && len(vs) > 0 {
		return vs[0]
	}
	return 0
}

// GlobalIdx returns the final value of g[idx].
func (o *Outcome) GlobalIdx(name string, idx int) int64 {
	if vs, ok := o.globals[name]; ok && idx >= 0 && idx < len(vs) {
		return vs[idx]
	}
	return 0
}

// Failed reports whether the run hit an assertion failure, deadlock or
// runtime error.
func (o *Outcome) Failed() bool {
	return len(o.Failures) > 0 || o.Deadlock || o.Err != nil
}

// clock is the scheduler's view of one thread, kept beside the machine
// state's thread of the same id: its simulated cycles and the thread it
// waits to join (-1 for none).
type clock struct {
	cycles  int64
	joining int
}

type sim struct {
	m      *Machine
	cfg    Config
	st     State
	clocks []clock
	rng    *rand.Rand
	out    *Outcome
	ready  []int // Random's per-step candidate list, reused
}

// Run executes the program's main function to completion (or failure).
func Run(p *ir.Program, cfg Config) *Outcome {
	cfg = cfg.withDefaults()
	r := &sim{
		m:   NewMachine(p, cfg.Mode, cfg.BufferCap, cfg.MemoryCap),
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		out: &Outcome{Program: p.Name},
	}
	r.st = r.m.NewState()
	mainFn := r.m.Func(p.Main)
	if mainFn == nil {
		r.out.Err = fmt.Errorf("tso: program %q has no main function %q", p.Name, p.Main)
		return r.out
	}
	r.m.StartThread(&r.st, mainFn)
	r.clocks = append(r.clocks, clock{joining: -1})
	r.loop()
	for _, c := range r.clocks {
		r.out.SumCycles += c.cycles
	}
	r.out.globals = make(map[string][]int64, len(p.Globals))
	for _, g := range p.Globals {
		b := r.m.Base(g)
		r.out.globals[g.Name] = append([]int64(nil), r.st.Mem[b:b+int64(g.Size)]...)
	}
	return r.out
}

func (r *sim) loop() {
	for {
		if r.out.Err != nil {
			return
		}
		if r.out.Steps >= r.cfg.MaxSteps {
			r.out.Deadlock = true
			r.out.Failures = append(r.out.Failures, "livelock: step limit exceeded")
			return
		}
		tid, alive := r.pick()
		if !alive {
			return // all threads finished
		}
		if tid < 0 {
			r.out.Deadlock = true
			r.out.Failures = append(r.out.Failures, "deadlock: threads blocked in join")
			return
		}
		r.step(tid)
		r.out.Steps++
		r.voluntaryDrain(tid)
	}
}

// pick chooses the thread to step next, or -1 when no thread is runnable;
// alive reports whether any thread has yet to finish. A thread is
// runnable when it has not finished and the thread it joins, if any, has;
// every thread is checked, in id order, on every step. Unblocking a join
// is not itself traced: the Join instruction re-executes and reports the
// completed join once. MinTime keeps the runnable thread with the fewest
// cycles as it scans (the strict comparison breaks ties to the lowest
// id); Random draws from the runnable threads in id order, collected in a
// slice reused across steps.
func (r *sim) pick() (best int, alive bool) {
	random := r.cfg.Sched == Random
	r.ready = r.ready[:0]
	best = -1
	var bestCycles int64
	threads, clocks := r.st.Threads, r.clocks[:len(r.st.Threads)]
	for tid := range threads {
		if threads[tid].Done {
			continue
		}
		alive = true
		c := &clocks[tid]
		if c.joining >= 0 {
			if !threads[c.joining].Done {
				continue
			}
			c.joining = -1
		}
		if random {
			r.ready = append(r.ready, tid)
		} else if best < 0 || c.cycles < bestCycles {
			best, bestCycles = tid, c.cycles
		}
	}
	if random && len(r.ready) > 0 {
		best = r.ready[r.rng.Intn(len(r.ready))]
	}
	return best, alive
}

func (r *sim) voluntaryDrain(tid int) {
	if r.cfg.Mode != TSO || len(r.st.Threads[tid].Buf) == 0 {
		return
	}
	switch r.cfg.Policy {
	case DrainEager:
		r.st.DrainAll(tid)
	case DrainRandom:
		if r.rng.Intn(100) < r.cfg.DrainPercent {
			r.st.Drain(tid)
		}
	case DrainLazy:
		// only forced drains
	}
}

// trace reports a memory access to the configured tracer, if any.
func (r *sim) trace(tid int, in *ir.Instr, addr int64, write bool) {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Access(tid, in, addr, write)
	}
}

// step executes one instruction of thread tid on the machine and charges
// its cost, reports its accesses and records its outcome effects.
func (r *sim) step(tid int) {
	ev, err := r.m.Step(&r.st, tid)
	if err != nil {
		r.out.Err = fmt.Errorf("tso: %w", err)
		return
	}
	in, c := ev.Instr, &r.cfg.Costs
	var cost int64
	switch in.Kind {
	case ir.Load, ir.LoadPtr:
		cost = c.LoadMem
		if ev.Hit {
			cost = c.LoadFwd
		}
		r.trace(tid, in, ev.Addr, false)
	case ir.Store, ir.StorePtr:
		cost = c.Store
		r.trace(tid, in, ev.Addr, true)
	case ir.CAS, ir.FetchAdd:
		r.trace(tid, in, ev.Addr, false)
		if ev.Hit {
			r.trace(tid, in, ev.Addr, true)
		}
		cost = c.RMW
		r.out.RMWs++
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull {
			cost = c.FullFence + int64(ev.N)*c.FencePerSlot
			r.out.FullFences++
		}
		// compiler barriers cost nothing at run time
	case ir.Br, ir.Jmp:
		cost = c.Branch
	case ir.Ret, ir.Call:
		cost = c.Call
	case ir.Spawn:
		cost = c.Call
		r.clocks = append(r.clocks, clock{joining: -1})
		if r.cfg.Tracer != nil {
			r.cfg.Tracer.Spawn(tid, ev.N)
		}
	case ir.Join:
		cost = c.Call
		if ev.Hit {
			r.clocks[tid].joining = ev.N // blocked: retry after the target finishes
		} else if r.cfg.Tracer != nil {
			r.cfg.Tracer.Join(tid, ev.N)
		}
	case ir.Assert:
		if ev.Hit {
			r.out.Failures = append(r.out.Failures,
				fmt.Sprintf("assert failed in %s (thread %d): %s", r.st.Threads[tid].Top().Fn.Name, tid, in.Msg))
		}
	case ir.Print:
		r.out.Printed = append(r.out.Printed, r.st.Threads[tid].Top().Regs[in.A])
	default: // register arithmetic, AddrOf, Alloca, Malloc
		cost = c.ALU
	}
	cl := &r.clocks[tid]
	cl.cycles += cost
	if cl.cycles > r.out.MaxCycles {
		r.out.MaxCycles = cl.cycles
	}
}
