package tso

import (
	"fmt"
	"sort"
	"strings"

	"fenceplace/internal/ir"
)

// ExploreConfig bounds an exhaustive exploration.
type ExploreConfig struct {
	Mode      Mode
	BufferCap int // default 4
	MaxStates int // default 1<<20; exceeded => Truncated
}

// StateSet is the set of reachable final states of an exploration, by
// Explore or by the model checker of package mc. Each outcome is the final
// value vector of the program's globals, keyed by a printable form; the
// model checker suffixes the key with "!assert" or "!deadlock" for
// failing terminals.
type StateSet struct {
	Outcomes  map[string][]int64
	Visited   int64
	Truncated bool
}

// Has reports whether a final state assigning the given scalar-global
// values was reached. Globals not mentioned may hold anything; a name that
// is no global of prog never matches.
func (s *StateSet) Has(want map[string]int64, prog *ir.Program) bool {
	idx := make(map[string]int, len(prog.Globals))
	off := 0
	for _, g := range prog.Globals {
		idx[g.Name] = off
		off += g.Size
	}
	for _, vec := range s.Outcomes {
		match := true
		for name, v := range want {
			off, ok := idx[name]
			if !ok || vec[off] != v {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
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

// exState is one exploration state: flat global memory plus per-thread
// control state and store buffer. Litmus threads are single-function and
// call-free, so a thread needs no frame stack.
type exState struct {
	mem     []int64
	threads []exThread
}

// exEntry is one buffered store of an exploration thread.
type exEntry struct{ addr, val int64 }

type exThread struct {
	blk  *ir.Block
	idx  int
	regs []int64
	buf  []exEntry
	done bool
}

func (s *exState) clone() *exState {
	n := &exState{mem: append([]int64(nil), s.mem...)}
	n.threads = make([]exThread, len(s.threads))
	for i, t := range s.threads {
		n.threads[i] = exThread{
			blk: t.blk, idx: t.idx, done: t.done,
			regs: append([]int64(nil), t.regs...),
			buf:  append([]exEntry(nil), t.buf...),
		}
	}
	return n
}

func (s *exState) key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v", s.mem)
	for _, t := range s.threads {
		fmt.Fprintf(&sb, "|%p.%d.%v.%v.%t", t.blk, t.idx, t.regs, t.buf, t.done)
	}
	return sb.String()
}

func (s *exState) terminal() bool {
	for _, t := range s.threads {
		if !t.done || len(t.buf) > 0 {
			return false
		}
	}
	return true
}

// Explore enumerates every reachable interleaving (and, under TSO, every
// drain schedule) of the named thread functions running concurrently from
// the program's initial global state. The thread functions must be flat:
// no Call, Spawn, Join, Alloca or Malloc (litmus tests are). It returns the
// set of reachable final global states.
func Explore(p *ir.Program, threadFns []string, cfg ExploreConfig) (*StateSet, error) {
	if cfg.BufferCap == 0 {
		cfg.BufferCap = 4
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 1 << 20
	}
	// Layout globals exactly like machine.layout (minus the null word —
	// exploration uses direct indices; AddrOf still needs real addresses,
	// so keep the same scheme with a leading null word).
	base := make(map[*ir.Global]int64)
	mem := []int64{0}
	for _, g := range p.Globals {
		base[g] = int64(len(mem))
		cells := make([]int64, g.Size)
		copy(cells, g.Init)
		mem = append(mem, cells...)
	}
	init := &exState{mem: mem}
	for _, name := range threadFns {
		fn := p.Fn(name)
		if fn == nil {
			return nil, fmt.Errorf("tso: explore: no function %q", name)
		}
		if err := checkFlat(fn); err != nil {
			return nil, err
		}
		init.threads = append(init.threads, exThread{blk: fn.Entry(), regs: make([]int64, fn.NRegs)})
	}

	res := &StateSet{Outcomes: make(map[string][]int64)}
	seen := map[string]bool{}
	stack := []*exState{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := s.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		res.Visited++
		if res.Visited > int64(cfg.MaxStates) {
			res.Truncated = true
			return res, nil
		}
		if s.terminal() {
			// Record final globals (skip the null word).
			res.Outcomes[fmt.Sprintf("%v", s.mem[1:])] = append([]int64(nil), s.mem[1:]...)
			continue
		}
		for ti := range s.threads {
			t := &s.threads[ti]
			// Choice A: drain the oldest buffered store.
			if cfg.Mode == TSO && len(t.buf) > 0 {
				n := s.clone()
				e := n.threads[ti].buf[0]
				n.threads[ti].buf = n.threads[ti].buf[1:]
				n.mem[e.addr] = e.val
				stack = append(stack, n)
			}
			// Choice B: execute the thread's next instruction.
			if !t.done {
				n := s.clone()
				if err := exStep(p, n, ti, base, cfg); err != nil {
					return nil, err
				}
				stack = append(stack, n)
			}
		}
	}
	return res, nil
}

func checkFlat(fn *ir.Fn) error {
	var bad *ir.Instr
	fn.Instrs(func(in *ir.Instr) {
		switch in.Kind {
		case ir.Call, ir.Spawn, ir.Join, ir.Alloca, ir.Malloc:
			if bad == nil {
				bad = in
			}
		}
	})
	if bad != nil {
		return fmt.Errorf("tso: explore: %s contains %s; exploration requires flat litmus threads", fn.Name, bad.Kind)
	}
	return nil
}

// exStep executes one instruction of thread ti in state s (in place).
func exStep(p *ir.Program, s *exState, ti int, base map[*ir.Global]int64, cfg ExploreConfig) error {
	t := &s.threads[ti]
	in := t.blk.Instrs[t.idx]
	advance := true

	addrOf := func(g *ir.Global, idx ir.Reg) (int64, error) {
		off := int64(0)
		if idx != ir.NoReg {
			off = t.regs[idx]
		}
		if off < 0 || off >= int64(g.Size) {
			return 0, fmt.Errorf("tso: explore: index %d out of bounds for %s", off, g.Name)
		}
		return base[g] + off, nil
	}
	load := func(addr int64) int64 {
		if cfg.Mode == TSO {
			for i := len(t.buf) - 1; i >= 0; i-- {
				if t.buf[i].addr == addr {
					return t.buf[i].val
				}
			}
		}
		return s.mem[addr]
	}
	store := func(addr, val int64) {
		if cfg.Mode == TSO {
			if len(t.buf) >= cfg.BufferCap {
				e := t.buf[0]
				t.buf = t.buf[1:]
				s.mem[e.addr] = e.val
			}
			t.buf = append(t.buf, exEntry{addr, val})
			return
		}
		s.mem[addr] = val
	}
	drainAll := func() {
		for len(t.buf) > 0 {
			e := t.buf[0]
			t.buf = t.buf[1:]
			s.mem[e.addr] = e.val
		}
	}

	switch in.Kind {
	case ir.Const:
		t.regs[in.Dst] = in.Imm
	case ir.Move:
		t.regs[in.Dst] = t.regs[in.A]
	case ir.BinOp:
		t.regs[in.Dst] = ir.EvalBinOp(in.Op, t.regs[in.A], t.regs[in.B])
	case ir.Load:
		addr, err := addrOf(in.G, in.Idx)
		if err != nil {
			return err
		}
		t.regs[in.Dst] = load(addr)
	case ir.Store:
		addr, err := addrOf(in.G, in.Idx)
		if err != nil {
			return err
		}
		store(addr, t.regs[in.A])
	case ir.AddrOf:
		addr, err := addrOf(in.G, in.Idx)
		if err != nil {
			return err
		}
		t.regs[in.Dst] = addr
	case ir.Gep:
		t.regs[in.Dst] = t.regs[in.A] + t.regs[in.B]
	case ir.LoadPtr:
		addr := t.regs[in.Addr]
		if addr <= 0 || addr >= int64(len(s.mem)) {
			return fmt.Errorf("tso: explore: wild address %d", addr)
		}
		t.regs[in.Dst] = load(addr)
	case ir.StorePtr:
		addr := t.regs[in.Addr]
		if addr <= 0 || addr >= int64(len(s.mem)) {
			return fmt.Errorf("tso: explore: wild address %d", addr)
		}
		store(addr, t.regs[in.A])
	case ir.CAS:
		addr := t.regs[in.Addr]
		if addr <= 0 || addr >= int64(len(s.mem)) {
			return fmt.Errorf("tso: explore: wild address %d", addr)
		}
		drainAll()
		if s.mem[addr] == t.regs[in.A] {
			s.mem[addr] = t.regs[in.B]
			t.regs[in.Dst] = 1
		} else {
			t.regs[in.Dst] = 0
		}
	case ir.FetchAdd:
		addr := t.regs[in.Addr]
		if addr <= 0 || addr >= int64(len(s.mem)) {
			return fmt.Errorf("tso: explore: wild address %d", addr)
		}
		drainAll()
		t.regs[in.Dst] = s.mem[addr]
		s.mem[addr] += t.regs[in.A]
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull {
			drainAll()
		}
	case ir.Br:
		if t.regs[in.A] != 0 {
			t.blk, t.idx = in.Then, 0
		} else {
			t.blk, t.idx = in.Else, 0
		}
		advance = false
	case ir.Jmp:
		t.blk, t.idx = in.Then, 0
		advance = false
	case ir.Ret:
		t.done = true
		advance = false
	case ir.Assert, ir.Print:
		// recorded outcomes carry the information; ignore here
	default:
		return fmt.Errorf("tso: explore: cannot execute %s", in.Kind)
	}
	if advance {
		t.idx++
	}
	return nil
}
