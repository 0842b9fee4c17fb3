package tso

import (
	"fmt"

	"fenceplace/internal/ir"
)

// DefaultMemoryCap is the arena limit, in words, that a zero MemoryCap
// selects.
const DefaultMemoryCap = 1 << 22

// Machine is the one per-instruction semantics of the module's IR on the
// SC or x86-TSO machine. Run drives it with a cycle-cost scheduler;
// package mc drives it with an exhaustive explorer. A Machine holds only
// what a program and a memory model fix — the global layout, the function
// table, the buffer and arena limits — and is safe for concurrent use;
// every execution state lives in a State.
type Machine struct {
	mode      Mode
	bufferCap int // store-buffer entries per thread under TSO
	memoryCap int // arena limit in words; negative means uncapped

	base  map[*ir.Global]int64
	funcs map[string]*Func
	mem   []int64 // the initial memory: address 0, then every global
}

// Func is one function of a Machine's program. ID is its index in
// Program.Funcs, which identifies it in the model checker's state
// encodings and indexes its per-function tables.
type Func struct {
	*ir.Fn
	ID int
}

// BufEntry is one buffered store.
type BufEntry struct{ Addr, Val int64 }

// Frame is one activation of a function.
type Frame struct {
	Fn     *Func
	Blk    *ir.Block
	Idx    int
	Regs   []int64
	RetDst ir.Reg // caller register receiving the return value
}

// Thread is a frame stack, a FIFO store buffer (empty under SC) and
// whether the thread has returned from its entry function. Frames above
// the top and buffer entries past the end keep their arrays for reuse:
// a call reuses the register file its depth last held when it is large
// enough, so a call in a loop allocates nothing.
type Thread struct {
	Frames []Frame
	Buf    []BufEntry
	Done   bool
}

// State is one machine state: memory and threads. A thread's id is its
// index in Threads.
type State struct {
	Mem     []int64
	Threads []Thread
}

// Event reports what one Step did, for the driver's own bookkeeping.
// Which fields carry information depends on the instruction executed:
//
//   - Load, LoadPtr: Addr; Hit when the value came from the thread's own
//     store buffer.
//   - Store, StorePtr: Addr.
//   - CAS, FetchAdd: Addr; Hit when memory was written (a failed CAS does
//     not write).
//   - Fence: N, the buffered stores a full fence retired.
//   - Spawn: N, the new thread's id.
//   - Join: N, the target's id; Hit when the target has not finished, so
//     the thread did not advance.
//   - Assert: Hit when the condition was zero.
//
// It is four words so that it returns in registers.
type Event struct {
	Instr *ir.Instr // the instruction executed
	Addr  int64
	N     int
	Hit   bool
}

// NewMachine lays out p's globals and indexes its functions. A zero
// memoryCap selects DefaultMemoryCap; a negative one leaves the arena
// uncapped.
func NewMachine(p *ir.Program, mode Mode, bufferCap, memoryCap int) *Machine {
	if memoryCap == 0 {
		memoryCap = DefaultMemoryCap
	}
	m := &Machine{
		mode: mode, bufferCap: bufferCap, memoryCap: memoryCap,
		base:  make(map[*ir.Global]int64, len(p.Globals)),
		funcs: make(map[string]*Func, len(p.Funcs)),
	}
	fns := make([]Func, len(p.Funcs))
	for i, fn := range p.Funcs {
		fns[i] = Func{Fn: fn, ID: i}
		m.funcs[fn.Name] = &fns[i]
	}
	// Address 0 stays unused so a zero value is never a valid pointer.
	m.mem = []int64{0}
	for _, g := range p.Globals {
		m.base[g] = int64(len(m.mem))
		cells := make([]int64, g.Size)
		copy(cells, g.Init)
		m.mem = append(m.mem, cells...)
	}
	return m
}

// Func returns the function with the given name, or nil.
func (m *Machine) Func(name string) *Func { return m.funcs[name] }

// Base returns the address of g's first word.
func (m *Machine) Base(g *ir.Global) int64 { return m.base[g] }

// Globals returns the words s's globals occupy, in declaration order.
func (m *Machine) Globals(s *State) []int64 { return s.Mem[1:len(m.mem)] }

// NewState returns the initial state: globals at their initial values and
// no threads.
func (m *Machine) NewState() State {
	return State{Mem: append([]int64(nil), m.mem...)}
}

// StartThread adds a thread entering fn with zeroed registers and returns
// its id.
func (m *Machine) StartThread(s *State, fn *Func) int {
	return m.startThread(s, fn, nil, nil)
}

// startThread adds a thread entering fn, its parameters copied from
// callerRegs[args], and returns its id. A slot beyond len(s.Threads) is
// recycled with its arrays. Under TSO the store buffer gets its full
// capacity up front: store never lets it grow past BufferCap.
func (m *Machine) startThread(s *State, fn *Func, callerRegs []int64, args []ir.Reg) int {
	tid := len(s.Threads)
	if tid < cap(s.Threads) {
		s.Threads = s.Threads[:tid+1]
	} else {
		s.Threads = append(s.Threads, Thread{})
	}
	t := &s.Threads[tid]
	t.Done = false
	t.Frames = t.Frames[:0]
	t.Buf = t.Buf[:0]
	if m.mode == TSO && cap(t.Buf) == 0 {
		t.Buf = make([]BufEntry, 0, m.bufferCap)
	}
	t.push(fn, ir.NoReg, callerRegs, args)
	return tid
}

// Top returns the executing frame of a live thread.
func (t *Thread) Top() *Frame { return &t.Frames[len(t.Frames)-1] }

// Next returns the next instruction of a live thread.
func (t *Thread) Next() *ir.Instr {
	f := t.Top()
	return f.Blk.Instrs[f.Idx]
}

// Forward returns the newest buffered value for addr, if the thread has
// one.
func (t *Thread) Forward(addr int64) (int64, bool) {
	for i := len(t.Buf) - 1; i >= 0; i-- {
		if t.Buf[i].Addr == addr {
			return t.Buf[i].Val, true
		}
	}
	return 0, false
}

// push enters fn on top of t's stack with zeroed registers, its parameters
// copied from callerRegs[args]. callerRegs is a slice header, so it stays
// valid when growing t.Frames moves the stack.
func (t *Thread) push(fn *Func, retDst ir.Reg, callerRegs []int64, args []ir.Reg) {
	n := len(t.Frames)
	if n < cap(t.Frames) {
		t.Frames = t.Frames[:n+1]
	} else {
		t.Frames = append(t.Frames, Frame{})
	}
	f := &t.Frames[n]
	regs := f.Regs
	if cap(regs) < fn.NRegs {
		regs = make([]int64, fn.NRegs)
	} else {
		regs = regs[:fn.NRegs]
		clear(regs)
	}
	for i, a := range args {
		regs[i] = callerRegs[a]
	}
	*f = Frame{Fn: fn, Blk: fn.Entry(), Regs: regs, RetDst: retDst}
}

// Drain retires thread tid's oldest buffered store to memory. The rest
// shift down in place: reslicing forward would bleed the buffer's front
// capacity away, and later stores and state copies would reallocate.
func (s *State) Drain(tid int) {
	t := &s.Threads[tid]
	e := t.Buf[0]
	copy(t.Buf, t.Buf[1:])
	t.Buf = t.Buf[:len(t.Buf)-1]
	s.Mem[e.Addr] = e.Val
}

// DrainAll retires every buffered store of thread tid, oldest first, and
// returns how many there were. CAS, FetchAdd, a full fence, Spawn and
// thread exit force it.
func (s *State) DrainAll(tid int) int {
	t := &s.Threads[tid]
	n := len(t.Buf)
	for _, e := range t.Buf {
		s.Mem[e.Addr] = e.Val
	}
	t.Buf = t.Buf[:0]
	return n
}

// Addr resolves the word address in names when executed in frame f: a
// cell of in.G for Load, Store and AddrOf, the Addr register otherwise.
// ok is false when the address is out of bounds — an index outside the
// global, or a pointer outside s's memory — and Step fails there.
func (m *Machine) Addr(s *State, f *Frame, in *ir.Instr) (addr int64, ok bool) {
	switch in.Kind {
	case ir.Load, ir.Store, ir.AddrOf:
		off := int64(0)
		if in.Idx != ir.NoReg {
			off = f.Regs[in.Idx]
		}
		return m.base[in.G] + off, off >= 0 && off < int64(in.G.Size)
	}
	addr = f.Regs[in.Addr]
	return addr, addr > 0 && addr < int64(len(s.Mem))
}

// badAddr is the error of an access whose Addr is out of bounds.
func (m *Machine) badAddr(s *State, tid int, f *Frame, in *ir.Instr, addr int64) error {
	if in.Kind == ir.Load || in.Kind == ir.Store || in.Kind == ir.AddrOf {
		return fail(tid, f, "index %d out of bounds for global %s[%d]", addr-m.base[in.G], in.G.Name, in.G.Size)
	}
	return fail(tid, f, "wild address %d (memory has %d words)", addr, len(s.Mem))
}

func fail(tid int, f *Frame, format string, args ...any) error {
	return fmt.Errorf("thread %d in %s: %s", tid, f.Fn.Name, fmt.Sprintf(format, args...))
}

// Step executes the next instruction of thread tid in place. Under TSO a
// store enters the thread's buffer, forcing the oldest entry out when the
// buffer is full, and a load reads the newest buffered store to its
// address before memory; CAS and FetchAdd drain the buffer and then act on
// memory atomically, like LOCK-prefixed instructions; a full fence, Spawn
// and the thread's final Ret drain it too. A Join whose target has not
// finished leaves the thread where it is. A step that fails — an
// out-of-bounds access, an exhausted arena, a Join of a thread that does
// not exist — changes nothing and returns the error.
func (m *Machine) Step(s *State, tid int) (Event, error) {
	t := &s.Threads[tid]
	f := &t.Frames[len(t.Frames)-1]
	in := f.Blk.Instrs[f.Idx]
	ev := Event{Instr: in}
	switch in.Kind {
	case ir.Const:
		f.Regs[in.Dst] = in.Imm
	case ir.Move:
		f.Regs[in.Dst] = f.Regs[in.A]
	case ir.BinOp:
		f.Regs[in.Dst] = ir.EvalBinOp(in.Op, f.Regs[in.A], f.Regs[in.B])
	case ir.Gep:
		f.Regs[in.Dst] = f.Regs[in.A] + f.Regs[in.B]
	case ir.Load, ir.LoadPtr:
		addr, ok := m.Addr(s, f, in)
		if !ok {
			return ev, m.badAddr(s, tid, f, in, addr)
		}
		ev.Addr = addr
		v, fwd := int64(0), false
		if m.mode == TSO {
			v, fwd = t.Forward(addr)
		}
		if !fwd {
			v = s.Mem[addr]
		}
		f.Regs[in.Dst], ev.Hit = v, fwd
	case ir.Store, ir.StorePtr:
		addr, ok := m.Addr(s, f, in)
		if !ok {
			return ev, m.badAddr(s, tid, f, in, addr)
		}
		ev.Addr = addr
		if m.mode == TSO {
			if len(t.Buf) >= m.bufferCap {
				s.Drain(tid) // buffer pressure forces the oldest entry out
			}
			t.Buf = append(t.Buf, BufEntry{addr, f.Regs[in.A]})
		} else {
			s.Mem[addr] = f.Regs[in.A]
		}
	case ir.AddrOf:
		addr, ok := m.Addr(s, f, in)
		if !ok {
			return ev, m.badAddr(s, tid, f, in, addr)
		}
		f.Regs[in.Dst] = addr
	case ir.Alloca, ir.Malloc:
		n := in.Imm
		if m.memoryCap > 0 && len(s.Mem)+int(n) > m.memoryCap {
			return ev, fail(tid, f, "arena exhausted (%d words requested at %d)", n, len(s.Mem))
		}
		f.Regs[in.Dst] = int64(len(s.Mem))
		// Appended words are zeroed explicitly: a recycled state's memory
		// array may hold stale values beyond its length.
		for i := int64(0); i < n; i++ {
			s.Mem = append(s.Mem, 0)
		}
	case ir.CAS, ir.FetchAdd:
		addr, ok := m.Addr(s, f, in)
		if !ok {
			return ev, m.badAddr(s, tid, f, in, addr)
		}
		ev.Addr = addr
		s.DrainAll(tid) // LOCK prefix: full barrier
		if in.Kind == ir.FetchAdd {
			f.Regs[in.Dst] = s.Mem[addr]
			s.Mem[addr] += f.Regs[in.A]
			ev.Hit = true
		} else if s.Mem[addr] == f.Regs[in.A] {
			s.Mem[addr] = f.Regs[in.B]
			f.Regs[in.Dst], ev.Hit = 1, true
		} else {
			f.Regs[in.Dst] = 0
		}
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull {
			ev.N = s.DrainAll(tid)
		}
		// a compiler barrier does nothing at run time
	case ir.Br:
		if f.Regs[in.A] != 0 {
			f.Blk, f.Idx = in.Then, 0
		} else {
			f.Blk, f.Idx = in.Else, 0
		}
		return ev, nil
	case ir.Jmp:
		f.Blk, f.Idx = in.Then, 0
		return ev, nil
	case ir.Ret:
		var val int64
		if in.A != ir.NoReg {
			val = f.Regs[in.A]
		}
		retDst := f.RetDst
		t.Frames = t.Frames[:len(t.Frames)-1]
		if len(t.Frames) == 0 {
			t.Done = true
			s.DrainAll(tid) // a finished thread's stores become visible
		} else if retDst != ir.NoReg {
			t.Top().Regs[retDst] = val
		}
		return ev, nil
	case ir.Call:
		f.Idx++ // return to the next instruction
		t.push(m.funcs[in.Callee], in.Dst, f.Regs, in.Args)
		return ev, nil
	case ir.Spawn:
		// Thread creation synchronizes (pthread_create takes kernel locks):
		// the parent's buffered stores are visible to the child. Adding the
		// child may move s.Threads, so t goes stale; f points into the
		// parent's own frame array and stays valid.
		s.DrainAll(tid)
		ev.N = m.startThread(s, m.funcs[in.Callee], f.Regs, in.Args)
		if in.Dst != ir.NoReg {
			f.Regs[in.Dst] = int64(ev.N)
		}
	case ir.Join:
		target := f.Regs[in.A]
		if target < 0 || target >= int64(len(s.Threads)) {
			return ev, fail(tid, f, "join of invalid thread id %d", target)
		}
		ev.N = int(target)
		if !s.Threads[target].Done {
			ev.Hit = true
			return ev, nil
		}
	case ir.Assert:
		ev.Hit = f.Regs[in.A] == 0
	case ir.Print:
		// no effect on the machine state
	default:
		return ev, fail(tid, f, "cannot execute %s", in.Kind)
	}
	f.Idx++
	return ev, nil
}
