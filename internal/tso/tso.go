// Package tso executes ir programs under Sequential Consistency or under
// x86-TSO (per-thread FIFO store buffers with store-to-load forwarding).
// It stands in for the paper's hardware testbed: fences placed by the
// analyses have exactly their x86 semantics here — a full fence drains the
// executing thread's store buffer (and costs time), a compiler barrier is
// free at run time, and atomic read-modify-writes behave like LOCK-prefixed
// instructions (drain, then act on memory atomically).
//
// The simulator is faithful to TSO's relaxation surface: stores retire in
// order, loads execute in program order and forward from the local buffer,
// so the only visible reordering is store→load — which is why, as in the
// paper (§4.4), only w→r orderings ever need a full fence.
//
// Two schedulers are provided. MinTime (the default) always steps the
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
	MemoryCap    int   // arena limit in words (default 1<<22)
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
	if c.MemoryCap == 0 {
		c.MemoryCap = 1 << 22
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

type bufEntry struct {
	addr int64
	val  int64
}

type frame struct {
	fn     *ir.Fn
	blk    *ir.Block
	idx    int
	regs   []int64
	retDst ir.Reg // caller register receiving the return value
}

type thread struct {
	id      int
	frames  []frame
	buf     []bufEntry
	cycles  int64
	done    bool
	joining int // thread id being joined, or -1
}

type machine struct {
	prog    *ir.Program
	cfg     Config
	mem     []int64
	next    int64 // arena bump pointer
	base    map[*ir.Global]int64
	threads []*thread
	rng     *rand.Rand
	out     *Outcome
	ready   []*thread // Random's per-step candidate list, reused
}

// Run executes the program's main function to completion (or failure).
func Run(p *ir.Program, cfg Config) *Outcome {
	cfg = cfg.withDefaults()
	m := &machine{
		prog: p,
		cfg:  cfg,
		base: make(map[*ir.Global]int64),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		out:  &Outcome{Program: p.Name},
	}
	m.layout()
	mainFn := p.Fn(p.Main)
	if mainFn == nil {
		m.out.Err = fmt.Errorf("tso: program %q has no main function %q", p.Name, p.Main)
		return m.out
	}
	m.startThread(mainFn)
	m.loop()
	for _, t := range m.threads {
		m.out.SumCycles += t.cycles
	}
	m.snapshot()
	return m.out
}

// layout assigns each global a base address; address 0 stays unused so a
// zero value is never a valid pointer.
func (m *machine) layout() {
	m.mem = make([]int64, 1)
	for _, g := range m.prog.Globals {
		m.base[g] = int64(len(m.mem))
		cells := make([]int64, g.Size)
		copy(cells, g.Init)
		m.mem = append(m.mem, cells...)
	}
	m.next = int64(len(m.mem))
}

func (m *machine) snapshot() {
	m.out.globals = make(map[string][]int64, len(m.prog.Globals))
	for _, g := range m.prog.Globals {
		b := m.base[g]
		m.out.globals[g.Name] = append([]int64(nil), m.mem[b:b+int64(g.Size)]...)
	}
}

// startThread creates a thread running fn; the caller fills the entry
// frame's parameter registers. Under TSO the store buffer gets its full
// capacity up front: storeWord never lets it grow past BufferCap.
func (m *machine) startThread(fn *ir.Fn) *thread {
	t := &thread{id: len(m.threads), joining: -1}
	if m.cfg.Mode == TSO {
		t.buf = make([]bufEntry, 0, m.cfg.BufferCap)
	}
	t.pushFrame(fn, ir.NoReg)
	m.threads = append(m.threads, t)
	return t
}

// pushFrame enters fn with zeroed registers and returns the new frame. A
// returned-from frame leaves its register file behind the top of
// t.frames, and the next call at that depth reuses it when it is large
// enough, so a call in a loop allocates nothing.
func (t *thread) pushFrame(fn *ir.Fn, retDst ir.Reg) *frame {
	n := len(t.frames)
	var regs []int64
	if n < cap(t.frames) {
		if old := t.frames[:n+1][n].regs; cap(old) >= fn.NRegs {
			regs = old[:fn.NRegs]
			clear(regs)
		}
	}
	if regs == nil {
		regs = make([]int64, fn.NRegs)
	}
	t.frames = append(t.frames, frame{fn: fn, blk: fn.Entry(), regs: regs, retDst: retDst})
	return &t.frames[n]
}

func (m *machine) runnable(t *thread) bool {
	if t.done {
		return false
	}
	if t.joining >= 0 {
		if !m.threads[t.joining].done {
			return false
		}
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.Join(t.id, t.joining)
		}
		t.joining = -1
	}
	return true
}

func (m *machine) loop() {
	for {
		if m.out.Err != nil {
			return
		}
		if m.out.Steps >= m.cfg.MaxSteps {
			m.out.Deadlock = true
			m.out.Failures = append(m.out.Failures, "livelock: step limit exceeded")
			return
		}
		t, alive := m.pick()
		if !alive {
			return // all threads finished
		}
		if t == nil {
			m.out.Deadlock = true
			m.out.Failures = append(m.out.Failures, "deadlock: threads blocked in join")
			return
		}
		m.step(t)
		m.out.Steps++
		m.voluntaryDrain(t)
	}
}

// pick chooses the thread to step next, or nil when no thread is
// runnable; alive reports whether any thread has yet to finish. Every
// thread goes through runnable, in id order, on every step: runnable
// completes joins, which the Tracer observes. MinTime keeps the runnable
// thread with the fewest cycles as it scans (the strict comparison breaks
// ties to the lowest id); Random draws from the runnable threads in id
// order, collected in a slice reused across steps.
func (m *machine) pick() (best *thread, alive bool) {
	random := m.cfg.Sched == Random
	m.ready = m.ready[:0]
	for _, t := range m.threads {
		if !t.done {
			alive = true
		}
		if !m.runnable(t) {
			continue
		}
		if random {
			m.ready = append(m.ready, t)
		} else if best == nil || t.cycles < best.cycles {
			best = t
		}
	}
	if random && len(m.ready) > 0 {
		best = m.ready[m.rng.Intn(len(m.ready))]
	}
	return best, alive
}

func (m *machine) voluntaryDrain(t *thread) {
	if m.cfg.Mode != TSO || len(t.buf) == 0 {
		return
	}
	switch m.cfg.Policy {
	case DrainEager:
		m.drainAll(t)
	case DrainRandom:
		if m.rng.Intn(100) < m.cfg.DrainPercent {
			m.drainOne(t)
		}
	case DrainLazy:
		// only forced drains
	}
}

// trace reports a memory access to the configured tracer, if any.
func (m *machine) trace(t *thread, in *ir.Instr, addr int64, write bool) {
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Access(t.id, in, addr, write)
	}
}

// drainOne retires the oldest buffered store. The remaining entries shift
// down in place, as in mc.applyDrain: reslicing forward would bleed the
// buffer's front capacity away and make storeWord's append reallocate.
func (m *machine) drainOne(t *thread) {
	e := t.buf[0]
	copy(t.buf, t.buf[1:])
	t.buf = t.buf[:len(t.buf)-1]
	m.mem[e.addr] = e.val
}

func (m *machine) drainAll(t *thread) {
	for len(t.buf) > 0 {
		m.drainOne(t)
	}
}

func (m *machine) fail(t *thread, format string, args ...any) {
	m.out.Err = fmt.Errorf("tso: thread %d in %s: %s", t.id, t.frames[len(t.frames)-1].fn.Name, fmt.Sprintf(format, args...))
}

// addrOf computes and bounds-checks the address of a direct global access.
func (m *machine) addrOf(t *thread, f *frame, g *ir.Global, idx ir.Reg) (int64, bool) {
	off := int64(0)
	if idx != ir.NoReg {
		off = f.regs[idx]
	}
	if off < 0 || off >= int64(g.Size) {
		m.fail(t, "index %d out of bounds for global %s[%d]", off, g.Name, g.Size)
		return 0, false
	}
	return m.base[g] + off, true
}

func (m *machine) checkAddr(t *thread, addr int64) bool {
	if addr <= 0 || addr >= int64(len(m.mem)) {
		m.fail(t, "wild address %d (memory has %d words)", addr, len(m.mem))
		return false
	}
	return true
}

// loadWord reads a word with TSO store-to-load forwarding.
func (m *machine) loadWord(t *thread, addr int64) (val int64, forwarded bool) {
	if m.cfg.Mode == TSO {
		for i := len(t.buf) - 1; i >= 0; i-- {
			if t.buf[i].addr == addr {
				return t.buf[i].val, true
			}
		}
	}
	return m.mem[addr], false
}

// storeWord issues a store: buffered under TSO, direct under SC.
func (m *machine) storeWord(t *thread, addr, val int64) {
	if m.cfg.Mode == TSO {
		if len(t.buf) >= m.cfg.BufferCap {
			m.drainOne(t) // buffer pressure forces the oldest entry out
		}
		t.buf = append(t.buf, bufEntry{addr, val})
		return
	}
	m.mem[addr] = val
}

// alloc reserves n fresh words in the arena.
func (m *machine) alloc(t *thread, n int64) (int64, bool) {
	if int(m.next)+int(n) > m.cfg.MemoryCap {
		m.fail(t, "arena exhausted (%d words requested at %d)", n, m.next)
		return 0, false
	}
	addr := m.next
	for i := int64(0); i < n; i++ {
		m.mem = append(m.mem, 0)
	}
	m.next += n
	return addr, true
}

// step executes one instruction of t.
func (m *machine) step(t *thread) {
	f := &t.frames[len(t.frames)-1]
	in := f.blk.Instrs[f.idx]
	c := &m.cfg.Costs
	advance := true

	switch in.Kind {
	case ir.Const:
		f.regs[in.Dst] = in.Imm
		t.cycles += c.ALU
	case ir.Move:
		f.regs[in.Dst] = f.regs[in.A]
		t.cycles += c.ALU
	case ir.BinOp:
		f.regs[in.Dst] = evalBinOp(in.Op, f.regs[in.A], f.regs[in.B])
		t.cycles += c.ALU
	case ir.Load:
		addr, ok := m.addrOf(t, f, in.G, in.Idx)
		if !ok {
			return
		}
		v, fwd := m.loadWord(t, addr)
		f.regs[in.Dst] = v
		if fwd {
			t.cycles += c.LoadFwd
		} else {
			t.cycles += c.LoadMem
		}
		m.trace(t, in, addr, false)
	case ir.Store:
		addr, ok := m.addrOf(t, f, in.G, in.Idx)
		if !ok {
			return
		}
		m.storeWord(t, addr, f.regs[in.A])
		t.cycles += c.Store
		m.trace(t, in, addr, true)
	case ir.LoadPtr:
		addr := f.regs[in.Addr]
		if !m.checkAddr(t, addr) {
			return
		}
		v, fwd := m.loadWord(t, addr)
		f.regs[in.Dst] = v
		if fwd {
			t.cycles += c.LoadFwd
		} else {
			t.cycles += c.LoadMem
		}
		m.trace(t, in, addr, false)
	case ir.StorePtr:
		addr := f.regs[in.Addr]
		if !m.checkAddr(t, addr) {
			return
		}
		m.storeWord(t, addr, f.regs[in.A])
		t.cycles += c.Store
		m.trace(t, in, addr, true)
	case ir.AddrOf:
		addr, ok := m.addrOf(t, f, in.G, in.Idx)
		if !ok {
			return
		}
		f.regs[in.Dst] = addr
		t.cycles += c.ALU
	case ir.Gep:
		f.regs[in.Dst] = f.regs[in.A] + f.regs[in.B]
		t.cycles += c.ALU
	case ir.Alloca, ir.Malloc:
		addr, ok := m.alloc(t, in.Imm)
		if !ok {
			return
		}
		f.regs[in.Dst] = addr
		t.cycles += c.ALU
	case ir.CAS:
		addr := f.regs[in.Addr]
		if !m.checkAddr(t, addr) {
			return
		}
		m.drainAll(t) // LOCK prefix: full barrier
		m.trace(t, in, addr, false)
		if m.mem[addr] == f.regs[in.A] {
			m.mem[addr] = f.regs[in.B]
			f.regs[in.Dst] = 1
			m.trace(t, in, addr, true)
		} else {
			f.regs[in.Dst] = 0
		}
		t.cycles += c.RMW
		m.out.RMWs++
	case ir.FetchAdd:
		addr := f.regs[in.Addr]
		if !m.checkAddr(t, addr) {
			return
		}
		m.drainAll(t)
		m.trace(t, in, addr, false)
		f.regs[in.Dst] = m.mem[addr]
		m.mem[addr] += f.regs[in.A]
		m.trace(t, in, addr, true)
		t.cycles += c.RMW
		m.out.RMWs++
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull {
			t.cycles += c.FullFence + int64(len(t.buf))*c.FencePerSlot
			m.drainAll(t)
			m.out.FullFences++
		}
		// compiler barriers cost nothing at run time
	case ir.Br:
		t.cycles += c.Branch
		if f.regs[in.A] != 0 {
			f.blk, f.idx = in.Then, 0
		} else {
			f.blk, f.idx = in.Else, 0
		}
		advance = false
	case ir.Jmp:
		t.cycles += c.Branch
		f.blk, f.idx = in.Then, 0
		advance = false
	case ir.Ret:
		t.cycles += c.Call
		var val int64
		if in.A != ir.NoReg {
			val = f.regs[in.A]
		}
		retDst := f.retDst
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) == 0 {
			t.done = true
			m.drainAll(t) // a finished thread's stores become visible
		} else if retDst != ir.NoReg {
			t.frames[len(t.frames)-1].regs[retDst] = val
		}
		advance = false
	case ir.Call:
		t.cycles += c.Call
		f.idx++ // return to the next instruction
		caller := f.regs
		nf := t.pushFrame(m.prog.Fn(in.Callee), in.Dst)
		for i, a := range in.Args {
			nf.regs[i] = caller[a]
		}
		advance = false
	case ir.Spawn:
		t.cycles += c.Call
		// Thread creation synchronizes (pthread_create takes kernel locks):
		// the parent's buffered stores are visible to the child.
		m.drainAll(t)
		child := m.startThread(m.prog.Fn(in.Callee))
		for i, a := range in.Args {
			child.frames[0].regs[i] = f.regs[a]
		}
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = int64(child.id)
		}
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.Spawn(t.id, child.id)
		}
	case ir.Join:
		t.cycles += c.Call
		target := f.regs[in.A]
		if target < 0 || target >= int64(len(m.threads)) {
			m.fail(t, "join of invalid thread id %d", target)
			return
		}
		if !m.threads[target].done {
			t.joining = int(target)
			advance = false // retry after the target finishes
		} else if m.cfg.Tracer != nil {
			m.cfg.Tracer.Join(t.id, int(target))
		}
	case ir.Assert:
		if f.regs[in.A] == 0 {
			m.out.Failures = append(m.out.Failures,
				fmt.Sprintf("assert failed in %s (thread %d): %s", f.fn.Name, t.id, in.Msg))
		}
	case ir.Print:
		m.out.Printed = append(m.out.Printed, f.regs[in.A])
	default:
		m.fail(t, "cannot execute %s", in.Kind)
		return
	}

	if advance {
		f = &t.frames[len(t.frames)-1]
		f.idx++
	}
	if t.cycles > m.out.MaxCycles {
		m.out.MaxCycles = t.cycles
	}
}

// evalBinOp delegates to the IR's single arithmetic definition so the
// simulator and the model checker can never diverge on pure operations.
func evalBinOp(op ir.Op, a, b int64) int64 { return ir.EvalBinOp(op, a, b) }
