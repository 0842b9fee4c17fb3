// Package mc is a parallel stateless model checker for the module's IR
// running on the x86-TSO (or SC) machine of package tso. It is the
// verification subsystem behind fenceplace.CertifyCtx: it enumerates every
// reachable final state of a program under both memory models and decides
// whether a fence placement restores sequential consistency, producing a
// counterexample schedule when it does not.
//
// The engine executes instructions through tso's step semantics,
// tso.Machine.Step, the same step the simulator tso.Run executes; it adds
// only exploration bookkeeping (the failed-assert flag, the MaxThreads
// limit, each function's live-register table). Whole programs — main
// spawning workers, calls, allocation — are explored exactly as they are
// simulated, including thread exit, which publishes a finishing thread's
// buffered stores at its final Ret. TestSimulatorWithinChecker checks that
// every final state the simulator reaches is one the engine enumerates.
// Around the step the engine adds four things:
//
//   - incremental state fingerprints: every state carries the lane-wise
//     sum of 128-bit components keyed by position — one per nonzero
//     memory word (its address and value), one per thread (its id, store
//     buffer and frame stack) — and a transition updates the sum by what
//     it changed: the words in its write set and the threads that moved
//     (see hash.go). The 128-bit hash of the sum, the thread count, the
//     memory size and the failed flag keys the seen set, so structurally
//     identical states met along different interleavings are explored
//     once;
//
//   - partial-order reduction: invisible steps (register ops, buffered
//     stores, frame pushes/pops, forward branches) are merged into the
//     transition that precedes them, so only states with no such step
//     enabled are stored (normalize). Retreating branches, which close
//     every CFG cycle (cfg.RetreatingBlocks), and loads forwarded from a
//     store buffer, which race with their own thread's drain, are never
//     merged. Sleep sets prune commuting interleavings of the remaining
//     visible transitions. Reduction preserves the reachable final-state
//     set, which is the property certification compares;
//
//   - dead-register reduction: a thread's fingerprint component, like its
//     canonical encoding (encode), holds per frame only the registers live
//     at the frame's program point (cfg.LiveRegs, a backward liveness pass
//     per function), so states that differ only in values no path reads
//     before overwriting hash alike and are explored once.
//     Dead registers keep whatever stale value they last held; a dead
//     value cannot reach memory, a branch or an outcome, so the reachable
//     final-state set is unchanged;
//
//   - a worker pool over a sharded seen set: every worker owns a
//     frontier stack, and all of them probe one seen set split into 64
//     shards, each behind its own lock. A worker whose stack runs dry
//     waits on a handoff channel, and a busy worker hands it one node from
//     the cold, root-near end of its stack: one node per waiting worker,
//     never more. Exploration so scales with GOMAXPROCS instead of dying
//     at a fixed sequential budget.
//
// Three slower explorers stay in the tree as cross-check oracles, each
// kept because tests compare the engine against it:
//
//   - tso.Explore, a sequential enumerator of flat litmus threads with
//     none of the reductions above and its own interpreter, the one
//     execution of the IR that shares no code with the step: it is the
//     independent reference. It returns the StateSet the engine returns.
//     litmus.TestModelCheckerAgreesWithLegacyExplorer,
//     the crossCheck differential of mc_test.go and the dead-register
//     tests of dead_test.go demand the same final-state sets from it;
//
//   - Config.ExactSeen, string-keyed seen sets in place of 128-bit
//     fingerprints: the fingerprint differentials of seen_test.go
//     (TestFingerprintMatchesExactSeen, TestTwoLevelSeenMatchesExactSeen
//     over presized tables, and their random twins) compare visit counts
//     and outcomes against it;
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
	"math/bits"
	"runtime"
	"slices"
	"strconv"

	"fenceplace/internal/cfg"
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
		c.MemoryCap = tso.DefaultMemoryCap
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.SpillDir = ""
	return c
}

// StateSet is the set of reachable final states of an exploration; the
// engine and the reference explorer tso.Explore share it.
type StateSet = tso.StateSet

// --- machine state -----------------------------------------------------------

// state is a machine state of tso's step semantics plus the engine's
// additions: whether an Assert failed on the path to it, and the
// fingerprint components it carries (see hash.go). sum is the lane-wise
// sum of the components of every nonzero memory word and every thread;
// thr holds each thread's component, indexed by thread id. fire keeps
// both up to date, and components computes them from scratch.
type state struct {
	tso.State
	failed bool
	sum    h128
	thr    []h128
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
	dst.sum = src.sum
	dst.thr = append(dst.thr[:0], src.thr...)
	dst.Mem = append(dst.Mem[:0], src.Mem...)
	n := len(src.Threads)
	if cap(dst.Threads) >= n {
		// Reslicing (not appending) keeps the recycled thread slots beyond
		// the previous length, so their buffers and frame stacks get reused
		// too.
		dst.Threads = dst.Threads[:n]
	} else {
		dst.Threads = append(dst.Threads[:cap(dst.Threads)], make([]tso.Thread, n-cap(dst.Threads))...)
	}
	for i := 0; i < n; i++ {
		st, dt := &src.Threads[i], &dst.Threads[i]
		dt.Done = st.Done
		dt.Buf = append(dt.Buf[:0], st.Buf...)
		m := len(st.Frames)
		if cap(dt.Frames) >= m {
			dt.Frames = dt.Frames[:m]
		} else {
			dt.Frames = append(dt.Frames[:cap(dt.Frames)], make([]tso.Frame, m-cap(dt.Frames))...)
		}
		for j := 0; j < m; j++ {
			sf, df := &st.Frames[j], &dt.Frames[j]
			regs := df.Regs
			*df = *sf
			df.Regs = append(regs[:0], sf.Regs...)
		}
	}
}

func (s *state) terminal() bool {
	for i := range s.Threads {
		if !s.Threads[i].Done || len(s.Threads[i].Buf) > 0 {
			return false
		}
	}
	return true
}

// liveTables returns every function's live-register table from
// cfg.LiveRegs, indexed [tso.Func.ID][block ID][instruction index], which
// gives the registers live on entry to that instruction.
func liveTables(p *ir.Program) [][][][]ir.Reg {
	live := make([][][][]ir.Reg, len(p.Funcs))
	for i, f := range p.Funcs {
		live[i] = cfg.LiveRegs(f)
	}
	return live
}

// retreatTables returns every function's cfg.RetreatingBlocks, indexed
// [tso.Func.ID][block ID]: whether the branch ending that block may close
// a CFG cycle, which keeps it out of normalize's det steps.
func retreatTables(p *ir.Program) [][]bool {
	retreat := make([][]bool, len(p.Funcs))
	for i, f := range p.Funcs {
		retreat[i] = cfg.RetreatingBlocks(f)
	}
	return retreat
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
// It keys the ExactSeen oracle's seen set; a thread's words are also what
// its fingerprint component hashes.
func (e *engine) encode(s *state, buf []uint64) []uint64 {
	failed := uint64(0)
	if s.failed {
		failed = 1
	}
	live := e.live
	b := append(buf[:0], failed, uint64(len(s.Mem)), uint64(len(s.Threads)))
	for _, v := range s.Mem {
		b = append(b, uint64(v))
	}
	for i := range s.Threads {
		b = appendThread(b, &s.Threads[i], live)
	}
	return b
}

// appendThread appends thread t's words of the canonical form to b.
func appendThread(b []uint64, t *tso.Thread, live [][][][]ir.Reg) []uint64 {
	done := uint64(0)
	if t.Done {
		done = 1
	}
	b = append(b, done|uint64(len(t.Buf))<<1|uint64(len(t.Frames))<<32)
	for _, en := range t.Buf {
		b = append(b, uint64(en.Addr), uint64(en.Val))
	}
	for j := range t.Frames {
		f := &t.Frames[j]
		blk, regs := f.Blk.ID(), f.Regs
		fid := f.Fn.ID
		b = append(b, uint64(fid)<<32|uint64(blk), uint64(f.Idx)<<32|uint64(uint32(f.RetDst)))
		for _, r := range live[fid][blk][f.Idx] {
			b = append(b, uint64(regs[r]))
		}
	}
	return b
}

// threadComp is thread tid's fingerprint component: hash128w of its id
// followed by its words of the canonical form, built in buf, which it
// returns for reuse.
func (e *engine) threadComp(s *state, tid int, buf []uint64) (h128, []uint64) {
	buf = appendThread(append(buf[:0], uint64(tid)), &s.Threads[tid], e.live)
	return hash128w(buf), buf
}

// components computes s's fingerprint components from scratch.
func (e *engine) components(s *state, buf []uint64) []uint64 {
	s.sum = h128{}
	for addr, v := range s.Mem {
		if v != 0 {
			s.sum = s.sum.add(memComp(int64(addr), v))
		}
	}
	s.thr = s.thr[:0]
	return e.rehash(s, 0, buf)
}

// rehash recomputes the components of the threads in the dirty mask and
// of every thread s gained since its components were last brought up to
// date, and adjusts the sum.
func (e *engine) rehash(s *state, dirty uint32, buf []uint64) []uint64 {
	for tid := len(s.thr); tid < len(s.Threads); tid++ {
		s.thr = append(s.thr, h128{})
		dirty |= stepBit(tid)
	}
	var c h128
	for ; dirty != 0; dirty &= dirty - 1 {
		tid := bits.TrailingZeros32(dirty)
		c, buf = e.threadComp(s, tid, buf)
		s.sum = s.sum.sub(s.thr[tid]).add(c)
		s.thr[tid] = c
	}
	return buf
}

// memDelta subtracts from s's sum (add false) or adds to it the
// components of the memory words at addrs, a sorted write set. Repeated
// addresses count once, and addresses outside memory — those of a step
// that is about to fail — not at all.
func (s *state) memDelta(addrs []int64, add bool) {
	prev := int64(-1)
	for _, addr := range addrs {
		if addr == prev || addr < 0 || addr >= int64(len(s.Mem)) {
			continue
		}
		prev = addr
		if v := s.Mem[addr]; v != 0 {
			if add {
				s.sum = s.sum.add(memComp(addr, v))
			} else {
				s.sum = s.sum.sub(memComp(addr, v))
			}
		}
	}
}

// fingerprint is s's seen-set key: hash128w of the failed flag with the
// memory size, the thread count and the two lanes of the carried sum.
func fingerprint(s *state) h128 {
	head := uint64(len(s.Mem)) << 1
	if s.failed {
		head |= 1
	}
	w := [4]uint64{head, uint64(len(s.Threads)), s.sum.hi, s.sum.lo}
	return hash128w(w[:])
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
func (a *analysis) writeBuf(t *tso.Thread, extraAddr bool, extra int64) fp {
	off := len(a.addrs)
	for _, en := range t.Buf {
		a.addrs = append(a.addrs, en.Addr)
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
	for tid := range s.Threads {
		t := &s.Threads[tid]
		if e.cfg.Mode == tso.TSO && len(t.Buf) > 0 {
			a.enabled |= drainBit(tid)
			a.fps[MaxThreads+tid] = a.write1(t.Buf[0].Addr)
		}
		if !stepEnabled(s, tid) {
			continue
		}
		a.enabled |= stepBit(tid)
		a.fps[tid] = e.stepFP(a, s, tid, t.Next())
	}
}

// stepEnabled reports whether thread tid can execute its next instruction:
// it has not finished, and a join's target has. An out-of-range join id
// counts as enabled so the step can surface the error.
func stepEnabled(s *state, tid int) bool {
	t := &s.Threads[tid]
	if t.Done {
		return false
	}
	in := t.Next()
	if in.Kind == ir.Join {
		target := t.Top().Regs[in.A]
		if target >= 0 && target < int64(len(s.Threads)) && !s.Threads[target].Done {
			return false
		}
	}
	return true
}

// stepFP evaluates the footprint of thread tid executing in from s,
// recording address sets in a's arena. Addresses come from the step's own
// resolution (tso.Machine.Addr); an out-of-bounds one makes the step fail
// when it fires, so its footprint is never relied on.
func (e *engine) stepFP(a *analysis, s *state, tid int, in *ir.Instr) fp {
	t := &s.Threads[tid]
	tsoMode := e.cfg.Mode == tso.TSO
	switch in.Kind {
	case ir.Const, ir.Move, ir.BinOp, ir.AddrOf, ir.Gep, ir.Assert, ir.Print, ir.Call, ir.Join:
		return fp{local: true}
	case ir.Br, ir.Jmp:
		return fp{local: true}
	case ir.Ret:
		if len(t.Frames) == 1 && tsoMode && len(t.Buf) > 0 {
			// Thread exit publishes the store buffer (pthread semantics).
			return a.writeBuf(t, false, 0)
		}
		return fp{local: true}
	case ir.Load, ir.LoadPtr:
		addr, _ := e.m.Addr(&s.State, t.Top(), in)
		if tsoMode {
			if _, fwd := t.Forward(addr); fwd {
				return fp{local: true}
			}
		}
		return a.read1(addr)
	case ir.Store, ir.StorePtr:
		if tsoMode {
			if len(t.Buf) >= e.cfg.BufferCap {
				// Buffer pressure forces the oldest entry to memory.
				return a.write1(t.Buf[0].Addr)
			}
			return fp{local: true} // store lands in the buffer
		}
		addr, _ := e.m.Addr(&s.State, t.Top(), in)
		return a.write1(addr)
	case ir.CAS, ir.FetchAdd:
		addr, _ := e.m.Addr(&s.State, t.Top(), in)
		r := a.read1(addr)
		w := a.writeBuf(t, true, addr)
		r.wOff, r.wLen = w.wOff, w.wLen
		return r
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull && tsoMode && len(t.Buf) > 0 {
			return a.writeBuf(t, false, 0)
		}
		return fp{local: true}
	case ir.Alloca, ir.Malloc:
		return fp{alloc: true}
	case ir.Spawn:
		// The parent's buffer drains first; the write set gives fire the
		// words that changed.
		f := a.writeBuf(t, false, 0)
		f.univ = true
		return f
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

// step executes the next instruction of thread tid in place through tso's
// step semantics — the same one tso.Run executes, minus cost accounting —
// and adds the engine's own bookkeeping: an Assert failure marks the
// state, and no state may hold more than MaxThreads threads.
// TestSimulatorWithinChecker (internal/tso) checks that every final state
// tso.Run reaches on the Table II kernels and the litmus tests is one this
// engine enumerates.
func (e *engine) step(s *state, tid int) error {
	ev, err := e.m.Step(&s.State, tid)
	if err != nil {
		return fmt.Errorf("mc: %w", err)
	}
	if ev.Hit && ev.Instr.Kind == ir.Assert {
		s.failed = true
	}
	if len(s.Threads) > MaxThreads {
		return fmt.Errorf("mc: thread %d: spawn exceeds the %d-thread limit of the model checker", tid, MaxThreads)
	}
	return nil
}
