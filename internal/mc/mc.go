// Package mc is a parallel stateless model checker for the module's IR
// running on the x86-TSO (or SC) machine of package tso. It is the
// verification subsystem behind fenceplace.CertifyCtx: it enumerates every
// reachable final state of a program under both memory models and decides
// whether a fence placement restores sequential consistency, producing a
// counterexample schedule when it does not.
//
// Compared with the legacy sequential enumerator (tso.Explore) the engine
// adds four things:
//
//   - canonical state hashing: states are encoded into a canonical string
//     of fixed-width words (memory, per-thread store buffers and frame
//     stacks), so structurally identical states met along different
//     interleavings are explored once;
//
//   - partial-order reduction: invisible, non-branching steps (register
//     ops, buffered stores, forwarded loads, frame pushes/pops) are merged
//     into the transition that precedes them, so only states with no such
//     step enabled are stored (normalize), and sleep sets prune commuting
//     interleavings of the remaining visible transitions. Reduction
//     preserves the reachable final-state set, which is the property
//     certification compares;
//
//   - dead-register reduction: a frame's encoding holds only the
//     registers live at its program point (cfg.LiveRegs, a backward
//     liveness pass per function), so states that differ only in values
//     no path reads before overwriting hash alike and are explored once.
//     Dead registers keep whatever stale value they last held; a dead
//     value cannot reach memory, a branch or an outcome, so the reachable
//     final-state set is unchanged;
//
//   - a sharded work-stealing worker pool: every worker owns a frontier
//     stack and a shard of the seen set; surplus states are handed off to
//     hungry workers over a channel, so exploration scales with GOMAXPROCS
//     instead of dying at a fixed sequential budget.
//
// Unlike tso.Explore, the engine also executes Call, Spawn, Join, Alloca
// and Malloc, so whole corpus programs (main spawning workers) can be
// explored, not just flat litmus threads. Thread exit models pthread
// semantics exactly like tso.Run: a finishing thread's buffered stores
// become visible atomically at its final Ret.
//
// Three slower explorers stay in the tree as cross-check oracles, each
// kept because tests compare the engine against it:
//
//   - tso.Explore, the legacy sequential enumerator with none of the
//     reductions above: litmus.TestModelCheckerAgreesWithLegacyExplorer,
//     the crossCheck differential of mc_test.go and the dead-register
//     tests of dead_test.go demand the same final-state sets from it;
//
//   - Config.ExactSeen, string-keyed seen sets in place of 128-bit
//     fingerprints: the fingerprint differentials of seen_test.go
//     (TestFingerprintMatchesExactSeen, TestTwoLevelSeenMatchesExactSeen
//     over presized tables, and their random twins) compare visit counts
//     and outcomes against it, and `fenceplace certify
//     -exact` exposes it;
//
//   - Config.NoPOR, the exploration without partial-order reduction: the
//     POR differentials (crossCheck in mc_test.go,
//     TestWholeProgramPORDifferential) compare outcomes against it,
//     TestPORVisitsStrictlyFewerStates checks the reduction visits fewer
//     states, and BenchmarkCertifyVsNaive measures how many fewer.
package mc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"

	"fenceplace/internal/cfg"
	"fenceplace/internal/fsx"
	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// MaxThreads bounds the number of simultaneously live threads the engine
// can track; transition identities are packed into a 32-bit sleep mask
// (one step bit and one drain bit per thread).
const MaxThreads = 16

// ErrTruncated is wrapped by exploration results whose state budget was
// exhausted: the verdict would be unsound, so callers must treat it as an
// explicit failure, never as "no violation found".
var ErrTruncated = errors.New("mc: state budget exhausted, exploration truncated")

// Config parameterizes an exploration.
type Config struct {
	Mode      tso.Mode
	BufferCap int   // store buffer capacity (default 4)
	MaxStates int64 // state budget; exceeded => Truncated (<= 0: default 1<<21)
	Workers   int   // worker goroutines (default GOMAXPROCS)
	NoPOR     bool  // disable partial-order reduction (cross-check oracle)

	// MemoryCap is the per-state arena limit in words: an Alloca or
	// Malloc that would grow a state's memory past it fails the
	// exploration ("arena exhausted"). It decides where allocations fail,
	// so it is part of BaselineKey and ExplorationKey. 0 means the default
	// (1<<22 words); negative means uncapped.
	MemoryCap int

	// SpillDir is ignored: the seen set no longer spills to disk, and
	// withDefaults zeroes the field so it reaches no key.
	//
	// Deprecated: ignored. It remains only because the benchmark harness
	// (bench/workloads.go) still sets it; the ROADMAP benchmark item
	// removes that use and then this field.
	SpillDir string

	// ExactSeen keys the seen set by full canonical state encodings
	// instead of 128-bit fingerprints. Exact mode allocates one string per
	// visited state; it exists as a cross-checking oracle for the
	// fingerprint tables, not for production use.
	ExactSeen bool

	// FS overrides the filesystem the certification pipeline's exploration
	// store (internal/passes opens it from this Config) routes through;
	// nil means the real OS. It is the fault-injection seam of the chaos
	// suite and cannot affect exploration results — it is not part of
	// BaselineKey. Implementations must have a comparable dynamic type:
	// normalized Configs are used as map keys by the pass session.
	FS fsx.FS

	// IORetries bounds the retry loop around transient store-I/O
	// failures: 0 means the fsx default (2), negative disables retrying.
	// Excluded from BaselineKey like every other I/O knob.
	IORetries int
}

// Normalize returns the configuration with every unset field replaced by
// its default, the form under which explorations actually run. Callers
// that key caches by configuration (the pass session's certification
// baselines) normalize first so a zero Workers field and an explicit
// GOMAXPROCS hit the same entry.
func (c Config) Normalize() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.BufferCap == 0 {
		c.BufferCap = 4
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 21
	}
	if c.MemoryCap == 0 {
		c.MemoryCap = 1 << 22
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.SpillDir = ""
	return c
}

// StateSet is the set of reachable final states of an exploration, keyed by
// a printable form of the final global values (suffixed with "!assert" or
// "!deadlock" for failing terminals).
type StateSet struct {
	Outcomes  map[string][]int64
	Visited   int64
	Truncated bool
}

// Has reports whether a final state assigning the given scalar-global
// values was reached. Globals not mentioned may hold anything.
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

// --- machine state -----------------------------------------------------------

type bufEntry struct {
	addr, val int64
}

// fnInfo is the engine's per-function record, shared by every frame of
// the function: its identity in state encodings (its index in
// Program.Funcs) and its live-register table from cfg.LiveRegs.
type fnInfo struct {
	*ir.Fn
	id   int32
	live [][][]ir.Reg // [block ID][instruction index] -> registers live on entry
}

func newFnInfo(fn *ir.Fn, id int) *fnInfo {
	return &fnInfo{Fn: fn, id: int32(id), live: cfg.LiveRegs(fn)}
}

type frm struct {
	fn     *fnInfo
	blk    *ir.Block
	idx    int
	regs   []int64
	retDst ir.Reg
}

type thr struct {
	frames []frm
	buf    []bufEntry
	done   bool
}

type state struct {
	mem     []int64
	threads []thr
	failed  bool // an Assert tripped somewhere on the path to this state
}

func (s *state) clone() *state {
	n := &state{}
	cloneInto(n, s)
	return n
}

// cloneInto copies src into dst, reusing every slice dst already owns
// (memory, per-thread buffers, frame stacks, register files). With dst
// drawn from a worker freelist the copy allocates nothing in steady state;
// only shape growth beyond a recycled state's capacity allocates.
func cloneInto(dst, src *state) {
	dst.failed = src.failed
	dst.mem = append(dst.mem[:0], src.mem...)
	n := len(src.threads)
	if cap(dst.threads) >= n {
		// Reslicing (not appending) keeps the recycled thr slots beyond the
		// previous length, so their buffers and frame stacks get reused too.
		dst.threads = dst.threads[:n]
	} else {
		dst.threads = append(dst.threads[:cap(dst.threads)], make([]thr, n-cap(dst.threads))...)
	}
	for i := 0; i < n; i++ {
		st, dt := &src.threads[i], &dst.threads[i]
		dt.done = st.done
		dt.buf = append(dt.buf[:0], st.buf...)
		m := len(st.frames)
		if cap(dt.frames) >= m {
			dt.frames = dt.frames[:m]
		} else {
			dt.frames = append(dt.frames[:cap(dt.frames)], make([]frm, m-cap(dt.frames))...)
		}
		for j := 0; j < m; j++ {
			sf, df := &st.frames[j], &dt.frames[j]
			regs := df.regs
			*df = *sf
			df.regs = append(regs[:0], sf.regs...)
		}
	}
}

func (s *state) terminal() bool {
	for i := range s.threads {
		if !s.threads[i].done || len(s.threads[i].buf) > 0 {
			return false
		}
	}
	return true
}

// top returns the executing frame of a live thread.
func (t *thr) top() *frm { return &t.frames[len(t.frames)-1] }

// next returns the next instruction of a live thread.
func (t *thr) next() *ir.Instr {
	f := t.top()
	return f.blk.Instrs[f.idx]
}

// encode renders the state into its canonical form, a string of words
// appended to buf (callers keep a per-worker buffer to avoid allocation
// churn). The header is the failed flag and the memory and thread counts,
// then come the memory words; each thread contributes a word packing its
// done flag, buffer length and frame count, its buffered (addr, val)
// pairs, and per frame two position words — (function index, block id)
// and (instruction index, retDst), stable across workers — followed by
// the registers live at that position only. Position determines the live
// set, so the string stays injective on everything a future step can read.
func (e *engine) encode(s *state, buf []uint64) []uint64 {
	failed := uint64(0)
	if s.failed {
		failed = 1
	}
	b := append(buf[:0], failed, uint64(len(s.mem)), uint64(len(s.threads)))
	for _, v := range s.mem {
		b = append(b, uint64(v))
	}
	for i := range s.threads {
		t := &s.threads[i]
		done := uint64(0)
		if t.done {
			done = 1
		}
		b = append(b, done|uint64(len(t.buf))<<1|uint64(len(t.frames))<<32)
		for _, en := range t.buf {
			b = append(b, uint64(en.addr), uint64(en.val))
		}
		for j := range t.frames {
			f := &t.frames[j]
			blk, regs := f.blk.ID(), f.regs
			live := f.fn.live[blk][f.idx]
			b = append(b, uint64(f.fn.id)<<32|uint64(blk), uint64(f.idx)<<32|uint64(uint32(f.retDst)))
			for _, r := range live {
				b = append(b, uint64(regs[r]))
			}
		}
	}
	return b
}

// appendOutcomeKey renders the printable outcome key of a terminal state
// — the final global values in fmt's %v slice form, suffixed "!assert"
// for failed paths — into buf, so the hot recording path can probe the
// outcome map without allocating a string.
func appendOutcomeKey(buf []byte, vec []int64, failed bool, suffix string) []byte {
	buf = append(buf, '[')
	for i, v := range vec {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	buf = append(buf, ']')
	if failed {
		buf = append(buf, "!assert"...)
	}
	return append(buf, suffix...)
}

// --- transitions -------------------------------------------------------------

// A transition is identified by a bit in a 32-bit mask: bit t is "thread t
// executes its next instruction", bit MaxThreads+t is "thread t drains the
// oldest entry of its store buffer".
func stepBit(tid int) uint32  { return 1 << uint(tid) }
func drainBit(tid int) uint32 { return 1 << uint(MaxThreads+tid) }

// fp is the shared-memory footprint of one enabled transition, evaluated
// in a concrete state (addresses are exact, not abstract). Read and write
// sets are ranges into the owning analysis's address arena, so evaluating
// a footprint allocates nothing; write sets are kept sorted so indep can
// merge-scan them.
type fp struct {
	rOff, rLen int
	wOff, wLen int
	local      bool // no visible effect: independent of every other thread
	alloc      bool // moves the arena bump pointer
	univ       bool // conservatively dependent with everything (Spawn)
}

// analysis is the per-state expansion record: the enabled transition mask,
// the footprint of every enabled transition, and the address arena the
// footprints slice into. One analysis per worker is reused across states.
type analysis struct {
	enabled uint32
	fps     [2 * MaxThreads]fp
	addrs   []int64
}

func (a *analysis) reads(i int) []int64 {
	f := &a.fps[i]
	return a.addrs[f.rOff : f.rOff+f.rLen]
}

func (a *analysis) writes(i int) []int64 {
	f := &a.fps[i]
	return a.addrs[f.wOff : f.wOff+f.wLen]
}

// read1 records a single-address read set.
func (a *analysis) read1(addr int64) fp {
	off := len(a.addrs)
	a.addrs = append(a.addrs, addr)
	return fp{rOff: off, rLen: 1}
}

// write1 records a single-address write set.
func (a *analysis) write1(addr int64) fp {
	off := len(a.addrs)
	a.addrs = append(a.addrs, addr)
	return fp{wOff: off, wLen: 1}
}

// writeBuf records the thread's buffered store addresses (plus extra, when
// extraAddr is true) as a write set, sorted for merge-scanning.
func (a *analysis) writeBuf(t *thr, extraAddr bool, extra int64) fp {
	off := len(a.addrs)
	for _, en := range t.buf {
		a.addrs = append(a.addrs, en.addr)
	}
	if extraAddr {
		a.addrs = append(a.addrs, extra)
	}
	w := a.addrs[off:]
	slices.Sort(w)
	return fp{wOff: off, wLen: len(w)}
}

// analyze computes the enabled transitions of s and their footprints into
// the caller's reusable analysis record.
func (e *engine) analyze(s *state, a *analysis) {
	a.enabled = 0
	a.addrs = a.addrs[:0]
	for tid := range s.threads {
		t := &s.threads[tid]
		if e.cfg.Mode == tso.TSO && len(t.buf) > 0 {
			a.enabled |= drainBit(tid)
			a.fps[MaxThreads+tid] = a.write1(t.buf[0].addr)
		}
		if !stepEnabled(s, tid) {
			continue
		}
		a.enabled |= stepBit(tid)
		a.fps[tid] = e.stepFP(a, s, tid, t.next())
	}
}

// stepEnabled reports whether thread tid can execute its next instruction:
// it has not finished, and a join's target has. An out-of-range join id
// counts as enabled so applyStep can surface the error.
func stepEnabled(s *state, tid int) bool {
	t := &s.threads[tid]
	if t.done {
		return false
	}
	in := t.next()
	if in.Kind == ir.Join {
		target := t.top().regs[in.A]
		if target >= 0 && target < int64(len(s.threads)) && !s.threads[target].done {
			return false
		}
	}
	return true
}

// stepFP evaluates the footprint of thread tid executing in from s,
// recording address sets in a's arena.
func (e *engine) stepFP(a *analysis, s *state, tid int, in *ir.Instr) fp {
	t := &s.threads[tid]
	f := t.top()
	tso_ := e.cfg.Mode == tso.TSO
	directAddr := func() int64 {
		off := int64(0)
		if in.Idx != ir.NoReg {
			off = f.regs[in.Idx]
		}
		return e.base[in.G] + off
	}
	forwarded := func(addr int64) bool {
		for i := len(t.buf) - 1; i >= 0; i-- {
			if t.buf[i].addr == addr {
				return true
			}
		}
		return false
	}
	switch in.Kind {
	case ir.Const, ir.Move, ir.BinOp, ir.AddrOf, ir.Gep, ir.Assert, ir.Print, ir.Call, ir.Join:
		return fp{local: true}
	case ir.Br, ir.Jmp:
		return fp{local: true}
	case ir.Ret:
		if len(t.frames) == 1 && tso_ && len(t.buf) > 0 {
			// Thread exit publishes the store buffer (pthread semantics).
			return a.writeBuf(t, false, 0)
		}
		return fp{local: true}
	case ir.Load, ir.LoadPtr:
		var addr int64
		if in.Kind == ir.Load {
			addr = directAddr()
		} else {
			addr = f.regs[in.Addr]
		}
		if tso_ && forwarded(addr) {
			return fp{local: true}
		}
		return a.read1(addr)
	case ir.Store, ir.StorePtr:
		if tso_ {
			if len(t.buf) >= e.cfg.BufferCap {
				// Buffer pressure forces the oldest entry to memory.
				return a.write1(t.buf[0].addr)
			}
			return fp{local: true} // store lands in the buffer
		}
		var addr int64
		if in.Kind == ir.Store {
			addr = directAddr()
		} else {
			addr = f.regs[in.Addr]
		}
		return a.write1(addr)
	case ir.CAS, ir.FetchAdd:
		addr := f.regs[in.Addr]
		r := a.read1(addr)
		w := a.writeBuf(t, true, addr)
		r.wOff, r.wLen = w.wOff, w.wLen
		return r
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull && tso_ && len(t.buf) > 0 {
			return a.writeBuf(t, false, 0)
		}
		return fp{local: true}
	case ir.Alloca, ir.Malloc:
		return fp{alloc: true}
	case ir.Spawn:
		return fp{univ: true}
	}
	return fp{univ: true} // unknown kinds: maximally conservative
}

// addrsIntersect merge-scans two sorted address slices for a common
// element. Single-element sets are trivially sorted; buffered write sets
// are sorted once when their footprint is recorded.
func addrsIntersect(a, b []int64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// indep reports whether two transitions (identified by bit index into
// a.fps) of different threads commute in the analyzed state.
func indep(a *analysis, i, j int) bool {
	ti, tj := i%MaxThreads, j%MaxThreads
	if ti == tj {
		return false
	}
	fi, fj := &a.fps[i], &a.fps[j]
	if fi.univ || fj.univ {
		return false
	}
	if fi.alloc && fj.alloc {
		return false
	}
	if addrsIntersect(a.writes(i), a.writes(j)) ||
		addrsIntersect(a.writes(i), a.reads(j)) ||
		addrsIntersect(a.reads(i), a.writes(j)) {
		return false
	}
	return true
}

// --- execution ---------------------------------------------------------------

// applyDrain retires the oldest buffered store of thread tid, in place.
// The remaining entries shift down rather than reslicing forward: a
// forward reslice would bleed the array's front capacity away, and every
// later cloneInto of the state would have to reallocate the buffer.
func applyDrain(s *state, tid int) {
	t := &s.threads[tid]
	en := t.buf[0]
	copy(t.buf, t.buf[1:])
	t.buf = t.buf[:len(t.buf)-1]
	s.mem[en.addr] = en.val
}

// applyStep executes the next instruction of thread tid, in place. It
// mirrors tso.Run's semantics exactly (including forced drains, LOCK-prefix
// RMWs and thread-exit buffer publication) minus cost accounting.
func (e *engine) applyStep(s *state, tid int) error {
	t := &s.threads[tid]
	f := t.top()
	in := f.blk.Instrs[f.idx]
	tsoMode := e.cfg.Mode == tso.TSO
	advance := true

	fail := func(format string, args ...any) error {
		return fmt.Errorf("mc: thread %d in %s: %s", tid, f.fn.Name, fmt.Sprintf(format, args...))
	}
	directAddr := func(g *ir.Global, idx ir.Reg) (int64, error) {
		off := int64(0)
		if idx != ir.NoReg {
			off = f.regs[idx]
		}
		if off < 0 || off >= int64(g.Size) {
			return 0, fail("index %d out of bounds for global %s[%d]", off, g.Name, g.Size)
		}
		return e.base[g] + off, nil
	}
	checkAddr := func(addr int64) error {
		if addr <= 0 || addr >= int64(len(s.mem)) {
			return fail("wild address %d (memory has %d words)", addr, len(s.mem))
		}
		return nil
	}
	load := func(addr int64) int64 {
		if tsoMode {
			for i := len(t.buf) - 1; i >= 0; i-- {
				if t.buf[i].addr == addr {
					return t.buf[i].val
				}
			}
		}
		return s.mem[addr]
	}
	store := func(addr, val int64) {
		if tsoMode {
			if len(t.buf) >= e.cfg.BufferCap {
				applyDrain(s, tid)
			}
			t.buf = append(t.buf, bufEntry{addr, val})
			return
		}
		s.mem[addr] = val
	}
	drainAll := func() {
		for len(t.buf) > 0 {
			applyDrain(s, tid)
		}
	}
	alloc := func(n int64) (int64, error) {
		if e.cfg.MemoryCap > 0 && len(s.mem)+int(n) > e.cfg.MemoryCap {
			return 0, fail("arena exhausted (%d words requested at %d)", n, len(s.mem))
		}
		addr := int64(len(s.mem))
		// Appended words are zeroed explicitly: a recycled state's mem
		// array may hold stale values beyond its length.
		for i := int64(0); i < n; i++ {
			s.mem = append(s.mem, 0)
		}
		return addr, nil
	}

	switch in.Kind {
	case ir.Const:
		f.regs[in.Dst] = in.Imm
	case ir.Move:
		f.regs[in.Dst] = f.regs[in.A]
	case ir.BinOp:
		f.regs[in.Dst] = ir.EvalBinOp(in.Op, f.regs[in.A], f.regs[in.B])
	case ir.Load:
		addr, err := directAddr(in.G, in.Idx)
		if err != nil {
			return err
		}
		f.regs[in.Dst] = load(addr)
	case ir.Store:
		addr, err := directAddr(in.G, in.Idx)
		if err != nil {
			return err
		}
		store(addr, f.regs[in.A])
	case ir.LoadPtr:
		addr := f.regs[in.Addr]
		if err := checkAddr(addr); err != nil {
			return err
		}
		f.regs[in.Dst] = load(addr)
	case ir.StorePtr:
		addr := f.regs[in.Addr]
		if err := checkAddr(addr); err != nil {
			return err
		}
		store(addr, f.regs[in.A])
	case ir.AddrOf:
		addr, err := directAddr(in.G, in.Idx)
		if err != nil {
			return err
		}
		f.regs[in.Dst] = addr
	case ir.Gep:
		f.regs[in.Dst] = f.regs[in.A] + f.regs[in.B]
	case ir.Alloca, ir.Malloc:
		addr, err := alloc(in.Imm)
		if err != nil {
			return err
		}
		f.regs[in.Dst] = addr
	case ir.CAS:
		addr := f.regs[in.Addr]
		if err := checkAddr(addr); err != nil {
			return err
		}
		drainAll()
		if s.mem[addr] == f.regs[in.A] {
			s.mem[addr] = f.regs[in.B]
			f.regs[in.Dst] = 1
		} else {
			f.regs[in.Dst] = 0
		}
	case ir.FetchAdd:
		addr := f.regs[in.Addr]
		if err := checkAddr(addr); err != nil {
			return err
		}
		drainAll()
		f.regs[in.Dst] = s.mem[addr]
		s.mem[addr] += f.regs[in.A]
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull {
			drainAll()
		}
	case ir.Br:
		if f.regs[in.A] != 0 {
			f.blk, f.idx = in.Then, 0
		} else {
			f.blk, f.idx = in.Else, 0
		}
		advance = false
	case ir.Jmp:
		f.blk, f.idx = in.Then, 0
		advance = false
	case ir.Ret:
		var val int64
		if in.A != ir.NoReg {
			val = f.regs[in.A]
		}
		retDst := f.retDst
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) == 0 {
			t.done = true
			drainAll() // exit publishes the buffer, like tso.Run
		} else if retDst != ir.NoReg {
			t.top().regs[retDst] = val
		}
		advance = false
	case ir.Call:
		// The caller's register file survives frame-stack growth (it is its
		// own array), so arguments are read through it after the push.
		f.idx++ // return to the next instruction
		t.pushFrame(e.fns[in.Callee], in.Dst, f.regs, in.Args)
		advance = false
	case ir.Spawn:
		drainAll() // thread creation synchronizes
		if len(s.threads) >= MaxThreads {
			return fail("spawn exceeds the %d-thread limit of the model checker", MaxThreads)
		}
		callee := e.fns[in.Callee]
		ntid := len(s.threads)
		if ntid < cap(s.threads) {
			// Reslice to recycle the stale thr slot's buffers and frames.
			s.threads = s.threads[:ntid+1]
		} else {
			s.threads = append(s.threads, thr{})
		}
		// NB: growing may have moved the threads slice; refresh t and f
		// (f.regs itself is stable — register files are separate arrays).
		t = &s.threads[tid]
		f = t.top()
		nt := &s.threads[ntid]
		nt.done = false
		nt.buf = nt.buf[:0]
		nt.frames = nt.frames[:0]
		nt.pushFrame(callee, ir.NoReg, f.regs, in.Args)
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = int64(ntid)
		}
	case ir.Join:
		target := f.regs[in.A]
		if target < 0 || target >= int64(len(s.threads)) {
			return fail("join of invalid thread id %d", target)
		}
		// enabledness guaranteed the target is done
	case ir.Assert:
		if f.regs[in.A] == 0 {
			s.failed = true
		}
	case ir.Print:
		// no observable effect on final state
	default:
		return fail("cannot execute %s", in.Kind)
	}

	if advance {
		t.top().idx++
	}
	return nil
}

// newFrame builds an entry frame with zeroed registers.
func newFrame(fn *fnInfo) frm {
	return frm{fn: fn, blk: fn.Entry(), idx: 0, regs: make([]int64, fn.NRegs), retDst: ir.NoReg}
}

// pushFrame appends a frame for callee to the thread's stack, reusing the
// register file a recycled frm slot may still hold. Argument registers are
// resolved through callerRegs — passed as a slice header so the values
// stay reachable even when growing t.frames moves the stack.
func (t *thr) pushFrame(callee *fnInfo, retDst ir.Reg, callerRegs []int64, argRegs []ir.Reg) {
	if len(t.frames) < cap(t.frames) {
		t.frames = t.frames[:len(t.frames)+1]
	} else {
		t.frames = append(t.frames, frm{})
	}
	nf := &t.frames[len(t.frames)-1]
	regs := nf.regs
	if cap(regs) < callee.NRegs {
		regs = make([]int64, callee.NRegs)
	} else {
		regs = regs[:callee.NRegs]
		clear(regs)
	}
	for i, a := range argRegs {
		regs[i] = callerRegs[a]
	}
	*nf = frm{fn: callee, blk: callee.Entry(), idx: 0, regs: regs, retDst: retDst}
}
