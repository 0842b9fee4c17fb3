package mc

// Canonical exploration identity and the record codec — the model
// checker's half of the persistent certification store (internal/store).
//
// BaselineKey names an SC baseline by content: a 128-bit hash of the
// finalized program's semantic structure, the entry configuration, and the
// semantically relevant exploration parameters. ExplorationKey extends the
// same identity to TSO explorations of instrumented programs. Two
// processes (or two machines) building the same corpus program derive the
// same keys, which is what lets `paperbench -cert` warm-start from a store
// another run filled.
//
// MarshalExploration/UnmarshalExploration serialize only the exploration
// outcome — the reachable final-state set plus its visit count — in a
// versioned binary format whose magic names the record's kind (SC
// baseline or TSO outcome set). The program, thread set and config are
// not stored: they are the key, and the loader re-supplies them.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// Key is the canonical 128-bit identity of a certification baseline.
type Key struct{ Hi, Lo uint64 }

// String renders the key as 32 lowercase hex digits — the name the
// persistent store files the baseline under.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }

// keySchema versions the key preimage: bump it whenever the encoding below
// (or the semantics it captures) changes, so stale store entries become
// unreachable instead of wrongly served. Schema 2: the default MemoryCap
// rose from 1<<16 to 1<<22 words and negative means uncapped — both move
// where allocations fail, so schema-1 entries must not be served.
const keySchema = 2

// tsoSchema versions TSO exploration keys on top of keySchema, so stale TSO
// records can be retired while SC baselines stay warm. TSO schema 1:
// earlier binaries merged a load forwarded from the store buffer into the
// step before it, which loses the schedules where the buffered value
// drains and another thread's store lands first (the forward-race case of
// TestBufferedStepsAgreeWithLegacyExplorer), so the TSO outcome sets they
// stored may be incomplete. SC explorations have no store buffers, so
// their keys stay as they were.
const tsoSchema = 1

// BaselineKey derives the canonical key of the SC baseline of (orig,
// threadFns, cfg). The preimage covers every input that can change the
// reachable SC final-state set:
//
//   - the program's semantic structure (globals with sizes and initial
//     values, every instruction with its operands, branch targets, callee
//     and global references by index) — names, assert messages and the
//     Synthetic marker are metadata and excluded, so a renamed but
//     structurally identical program hits the same entry;
//   - the entry configuration (the thread functions, or main);
//   - cfg.MemoryCap, which decides where allocations fail.
//
// Deliberately excluded: Mode (a baseline is by definition the SC
// exploration), BufferCap (store buffers never engage under SC), Workers
// and MaxStates (they shape the search, not the state space — a stored
// baseline is always a complete exploration, valid under any budget),
// and ExactSeen/NoPOR (oracle switches that differential tests pin to
// identical outcome sets). Excluding them maximizes warm hits across
// machines with different core counts and budgets. How the store itself
// performs and retries its disk I/O is not part of Config at all.
func BaselineKey(orig *ir.Program, threadFns []string, cfg Config) Key {
	cfg = cfg.withDefaults()
	return explorationKey("fpbase", orig, threadFns, false, int64(cfg.MemoryCap))
}

// ExplorationKey derives the canonical key of the complete exploration of
// (p, threadFns) under cfg.Mode. An SC key is BaselineKey, bit for bit. A
// TSO key hashes a distinct domain tag, so it can never equal an SC key,
// and adds tsoSchema and BufferCap, which decides how far stores may be
// delayed. It excludes the same search-shaping knobs BaselineKey does:
// Workers, MaxStates, ExactSeen and NoPOR.
//
// A TSO key also leaves out the fences that cannot change a TSO execution
// (see tsoEffective): compiler barriers, and full fences that only ever
// drain an empty store buffer. Both are det steps, which normalize merges,
// so no stored state sits at one, and two builds with the same effective
// fences have isomorphic reduced state graphs: the same outcome set and
// the same one-worker visit count (NoPOR, which the key excludes anyway,
// stores every step and counts the fences). They share one key. This
// needs no tsoSchema bump: two keys can only newly coincide for builds
// that differ only in such fences, and a program without them keys
// exactly as before.
func ExplorationKey(p *ir.Program, threadFns []string, cfg Config) Key {
	if cfg.Mode == tso.SC {
		return BaselineKey(p, threadFns, cfg)
	}
	cfg = cfg.withDefaults()
	return explorationKey("fptso", p, threadFns, true, tsoSchema, int64(cfg.MemoryCap), int64(cfg.BufferCap))
}

// explorationKey hashes the domain tag, the key schema, the semantic
// config parameters, the entry configuration and the program structure,
// less the no-op fences when dropNoOps is set (see appendProgram).
func explorationKey(tag string, p *ir.Program, threadFns []string, dropNoOps bool, params ...int64) Key {
	p.Finalize()

	fnPos := make(map[*ir.Fn]int64, len(p.Funcs))
	for i, f := range p.Funcs {
		fnPos[f] = int64(i)
	}
	fnIdx := func(name string) int64 {
		if f := p.Fn(name); f != nil {
			return fnPos[f]
		}
		return -1
	}

	b := make([]byte, 0, 4096)
	b = append(b, tag...)
	b = append(b, keySchema)
	for _, v := range params {
		b = binary.AppendVarint(b, v)
	}

	// Entry configuration: the resolved thread functions, or main.
	b = binary.AppendVarint(b, int64(len(threadFns)))
	if len(threadFns) == 0 {
		b = binary.AppendVarint(b, fnIdx(p.Main))
	} else {
		for _, name := range threadFns {
			b = binary.AppendVarint(b, fnIdx(name))
		}
	}

	b = appendProgram(b, p, fnIdx, dropNoOps)
	h := hash128(b)
	return Key{Hi: h.hi, Lo: h.lo}
}

// appendProgram renders the program's semantic structure into b. Globals
// and functions are referenced by index (their order defines the memory
// layout and the engine's function table), blocks by their finalized IDs.
// With dropNoOps it renders only the instructions tsoEffective keeps, and
// each block's instruction count counts only those.
func appendProgram(b []byte, p *ir.Program, fnIdx func(string) int64, dropNoOps bool) []byte {
	gPos := make(map[*ir.Global]int64, len(p.Globals))
	b = binary.AppendVarint(b, int64(len(p.Globals)))
	for i, g := range p.Globals {
		gPos[g] = int64(i)
		b = binary.AppendVarint(b, int64(g.Size))
		b = binary.AppendVarint(b, int64(len(g.Init)))
		for _, v := range g.Init {
			b = binary.AppendVarint(b, v)
		}
	}
	blockID := func(blk *ir.Block) int64 {
		if blk == nil {
			return -1
		}
		return int64(blk.ID())
	}
	var called []bool
	var bufIn []uint8
	var kept []*ir.Instr
	if dropNoOps {
		called = calledFns(p, fnIdx)
	}
	b = binary.AppendVarint(b, int64(len(p.Funcs)))
	for fi, f := range p.Funcs {
		b = binary.AppendVarint(b, int64(f.NParams))
		b = binary.AppendVarint(b, int64(f.NRegs))
		b = binary.AppendVarint(b, int64(len(f.Blocks)))
		if dropNoOps {
			bufIn = bufAtEntry(f, !called[fi], bufIn)
		}
		for _, blk := range f.Blocks {
			instrs := blk.Instrs
			if dropNoOps {
				kept = tsoEffective(kept[:0], blk, bufIn)
				instrs = kept
			}
			b = binary.AppendVarint(b, int64(len(instrs)))
			for _, in := range instrs {
				b = append(b, byte(in.Kind), byte(in.Op))
				for _, r := range [...]ir.Reg{in.Dst, in.A, in.B, in.Idx, in.Addr} {
					b = binary.AppendVarint(b, int64(r))
				}
				b = binary.AppendVarint(b, in.Imm)
				if in.G != nil {
					b = binary.AppendVarint(b, gPos[in.G])
				} else {
					b = binary.AppendVarint(b, -1)
				}
				if in.Callee != "" {
					b = binary.AppendVarint(b, fnIdx(in.Callee))
				} else {
					b = binary.AppendVarint(b, -1)
				}
				b = binary.AppendVarint(b, int64(len(in.Args)))
				for _, a := range in.Args {
					b = binary.AppendVarint(b, int64(a))
				}
				b = binary.AppendVarint(b, blockID(in.Then))
				b = binary.AppendVarint(b, blockID(in.Else))
			}
		}
	}
	return b
}

// The no-op fence analysis asks one question per program point: may this
// thread's store buffer hold a store here? Its states are ordered so that
// the join of two is their maximum.
const (
	bufUnreached uint8 = iota // no path reaches the point (yet)
	bufEmpty                  // every path arrives with an empty buffer
	bufMaybe                  // some path may arrive with a store buffered
)

// calledFns reports, per function position, whether some Call targets the
// function. A function no Call targets only ever starts a thread (main, a
// Spawn target, a litmus thread function), so it starts with an empty
// store buffer.
func calledFns(p *ir.Program, fnIdx func(string) int64) []bool {
	called := make([]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Kind == ir.Call {
					if i := fnIdx(in.Callee); i >= 0 {
						called[i] = true
					}
				}
			}
		}
	}
	return called
}

// bufAfter is the analysis's transfer function: the buffer state after in
// executes from state st. A store may leave the buffer non-empty, and so
// may a call, whose callee may store; a full fence, CAS, FetchAdd and
// Spawn drain it (tso.Machine.Step calls DrainAll for each).
func bufAfter(in *ir.Instr, st uint8) uint8 {
	switch in.Kind {
	case ir.Store, ir.StorePtr, ir.Call:
		return bufMaybe
	case ir.CAS, ir.FetchAdd, ir.Spawn:
		return bufEmpty
	case ir.Fence:
		if ir.FenceKind(in.Imm) == ir.FenceFull {
			return bufEmpty
		}
	}
	return st
}

// bufAtEntry runs the forward may-analysis over f and returns, in in
// (reused, indexed by block ID), the buffer state at each block's entry:
// the entry block starts empty when entryEmpty holds and maybe non-empty
// otherwise, and every other block joins its predecessors' exit states.
// Blocks no path reaches stay bufUnreached.
func bufAtEntry(f *ir.Fn, entryEmpty bool, in []uint8) []uint8 {
	n := len(f.Blocks)
	in = slices.Grow(in[:0], n)[:n]
	clear(in)
	if n == 0 {
		return in
	}
	in[0] = bufMaybe
	if entryEmpty {
		in[0] = bufEmpty
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			st := in[blk.ID()]
			if st == bufUnreached {
				continue
			}
			for _, ins := range blk.Instrs {
				st = bufAfter(ins, st)
				for _, succ := range [...]*ir.Block{ins.Then, ins.Else} {
					if succ != nil && in[succ.ID()] < st {
						in[succ.ID()] = st
						changed = true
					}
				}
			}
		}
	}
	return in
}

// tsoEffective appends to dst the instructions of blk that can change a
// TSO execution, given in, the bufAtEntry table of blk's function: every
// instruction but compiler barriers and the full fences the analysis
// reaches only with an empty buffer. An unreached block keeps its fences.
func tsoEffective(dst []*ir.Instr, blk *ir.Block, in []uint8) []*ir.Instr {
	st := in[blk.ID()]
	if st == bufUnreached {
		st = bufMaybe
	}
	for _, ins := range blk.Instrs {
		if !(ins.Kind == ir.Fence && (ir.FenceKind(ins.Imm) != ir.FenceFull || st == bufEmpty)) {
			dst = append(dst, ins)
		}
		st = bufAfter(ins, st)
	}
	return dst
}

// Record magics: the first three bytes name the record's kind, the
// trailing byte is the format version. A version bump makes old entries
// decode errors, which the store layer treats as misses, and a record of
// one kind never decodes as the other.
var (
	baselineMagic = []byte{'F', 'P', 'B', 1} // SC baseline
	tsoMagic      = []byte{'F', 'P', 'T', 1} // TSO outcome set
)

// recordFormat returns the magic and the error-message name of mode's
// record kind.
func recordFormat(mode tso.Mode) (magic []byte, name string) {
	if mode == tso.SC {
		return baselineMagic, "baseline"
	}
	return tsoMagic, "TSO"
}

// RecordKind names the kind of a stored record from its magic: "SC-baseline",
// "TSO-outcomes", or "unknown" for anything else (including records of
// another format version).
func RecordKind(data []byte) string {
	switch {
	case len(data) >= len(baselineMagic) && string(data[:len(baselineMagic)]) == string(baselineMagic):
		return "SC-baseline"
	case len(data) >= len(tsoMagic) && string(data[:len(tsoMagic)]) == string(tsoMagic):
		return "TSO-outcomes"
	}
	return "unknown"
}

// MarshalBinary serializes the baseline's SC outcome set in the versioned
// wire format (see MarshalExploration).
func (b *Baseline) MarshalBinary() ([]byte, error) {
	if b.SC == nil {
		return nil, fmt.Errorf("mc: marshal baseline of %s: no SC state set", b.Prog.Name)
	}
	data, err := MarshalExploration(tso.SC, b.SC)
	if err != nil {
		return nil, fmt.Errorf("mc: marshal baseline of %s: %w", b.Prog.Name, err)
	}
	return data, nil
}

// MarshalExploration serializes a complete exploration as a record of
// mode's kind: the visit count and the outcome set. Outcome keys are
// written sorted, so the encoding of a given state set is byte-identical
// across processes. A truncated exploration is an error: it is not a
// reusable result.
func MarshalExploration(mode tso.Mode, ss *StateSet) ([]byte, error) {
	if ss.Truncated {
		return nil, fmt.Errorf("mc: truncated %s exploration is not storable", mode)
	}
	keys := make([]string, 0, len(ss.Outcomes))
	for k := range ss.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	magic, _ := recordFormat(mode)
	out := append([]byte(nil), magic...)
	out = binary.AppendVarint(out, ss.Visited)
	out = binary.AppendVarint(out, int64(len(keys)))
	for _, k := range keys {
		out = binary.AppendVarint(out, int64(len(k)))
		out = append(out, k...)
		vec := ss.Outcomes[k]
		out = binary.AppendVarint(out, int64(len(vec)))
		for _, v := range vec {
			out = binary.AppendVarint(out, v)
		}
	}
	return out, nil
}

// decoder is a panic-free varint reader over a record; every read checks
// bounds so corrupt or truncated input surfaces as an error.
type decoder struct {
	b    []byte
	off  int
	name string // record kind, for error messages
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("mc: %s record: bad varint at offset %d", d.name, d.off)
	}
	d.off += n
	return v, nil
}

// count reads a non-negative length that must be satisfiable by the
// remaining bytes at minBytes bytes per element — the guard that keeps a
// corrupt length field from provoking a giant allocation.
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v < 0 || int(v)*minBytes > len(d.b)-d.off {
		return 0, fmt.Errorf("mc: %s record: implausible count %d at offset %d", d.name, v, d.off)
	}
	return int(v), nil
}

// UnmarshalBaseline decodes a baseline record produced by MarshalBinary
// and rebinds it to the caller's program, thread set and config — which
// must be the ones the record's store key was derived from; the codec
// cannot detect a mismatched program, only a malformed record. Any
// malformation (bad magic, wrong version, truncation, implausible counts,
// trailing bytes) is an error, never a panic: the store layer treats it as
// a cache miss and quarantines the entry.
func UnmarshalBaseline(orig *ir.Program, threadFns []string, cfg Config, data []byte) (*Baseline, error) {
	sc, err := UnmarshalExploration(tso.SC, data)
	if err != nil {
		return nil, err
	}
	scCfg := cfg.withDefaults()
	scCfg.Mode = tso.SC
	return &Baseline{Prog: orig, ThreadFns: threadFns, Cfg: scCfg, SC: sc}, nil
}

// UnmarshalExploration decodes a record of mode's kind produced by
// MarshalExploration. Like UnmarshalBaseline it rejects every
// malformation with an error, and a record of the other kind fails on its
// magic.
func UnmarshalExploration(mode tso.Mode, data []byte) (*StateSet, error) {
	magic, name := recordFormat(mode)
	if len(data) < len(magic) || string(data[:3]) != string(magic[:3]) {
		return nil, fmt.Errorf("mc: %s record: bad magic", name)
	}
	if data[3] != magic[3] {
		return nil, fmt.Errorf("mc: %s record: unsupported version %d", name, data[3])
	}
	d := &decoder{b: data, off: len(magic), name: name}
	visited, err := d.varint()
	if err != nil {
		return nil, err
	}
	if visited < 0 {
		return nil, fmt.Errorf("mc: %s record: negative visit count %d", name, visited)
	}
	nOutcomes, err := d.count(2) // each outcome: at least a key byte and a vec length
	if err != nil {
		return nil, err
	}
	outcomes := make(map[string][]int64, nOutcomes)
	for i := 0; i < nOutcomes; i++ {
		klen, err := d.count(1)
		if err != nil {
			return nil, err
		}
		if klen == 0 || klen > len(d.b)-d.off {
			return nil, fmt.Errorf("mc: %s record: bad outcome key length %d", name, klen)
		}
		key := string(d.b[d.off : d.off+klen])
		d.off += klen
		vlen, err := d.count(1)
		if err != nil {
			return nil, err
		}
		vec := make([]int64, vlen)
		for j := range vec {
			if vec[j], err = d.varint(); err != nil {
				return nil, err
			}
		}
		if _, dup := outcomes[key]; dup {
			return nil, fmt.Errorf("mc: %s record: duplicate outcome key %q", name, key)
		}
		outcomes[key] = vec
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("mc: %s record: %d trailing bytes", name, len(data)-d.off)
	}
	return &StateSet{Outcomes: outcomes, Visited: visited}, nil
}
