// Package ir defines the intermediate representation that all analyses in
// this module operate on: an infinite-register, load/store, word-addressed
// IR in the style of the paper's Section 4 ("all the algorithms operate on
// infinite register load-store intermediate representations").
//
// A Program is a set of word-sized shared Globals (scalars or arrays) plus a
// set of Fns. Each Fn is a control-flow graph of Blocks; each Block is a
// straight-line sequence of Instrs ending in a terminator (Br, Jmp or Ret).
// Registers are function-local virtual registers; there is no implicit
// memory traffic — every access to shared state is an explicit Load, Store,
// LoadPtr, StorePtr, CAS or FetchAdd instruction, which is exactly the shape
// the backwards slicer and the escape analysis need.
//
// Pointers are plain word values: every Global, Alloca and Malloc occupies a
// contiguous range of words in a flat address space laid out by the
// interpreter (package tso). AddrOf and Gep perform address arithmetic in
// word units, mirroring LLVM's GetElementPtr at the precision the paper's
// Address+Control algorithm cares about.
package ir

import (
	"fmt"
	"strings"
)

// Reg names a function-local virtual register. Registers 0..NParams-1 of a
// Fn hold its arguments on entry. NoReg marks an absent operand.
type Reg int32

// NoReg is the sentinel for "no register operand".
const NoReg Reg = -1

// Op enumerates the pure binary operators of the IR. Expressions in the
// paper's while-language are pure; BinOp is their entire algebra.
type Op uint8

// Binary operators. Comparison operators yield 0 or 1.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // division by zero yields 0 (the interpreter never traps)
	OpMod // modulo by zero yields 0
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	opEnd // sentinel; keep last
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpFromName maps a textual operator name back to its Op. The boolean
// reports whether the name is known.
func OpFromName(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s {
			return Op(i), true
		}
	}
	return 0, false
}

// Kind enumerates instruction kinds.
type Kind uint8

// Instruction kinds. The comment on each line documents which Instr fields
// the kind uses; all other fields are ignored for that kind.
const (
	Const    Kind = iota // Dst = Imm
	Move                 // Dst = A
	BinOp                // Dst = A <Op> B
	Load                 // Dst = G[Idx]      (Idx == NoReg for scalars)
	Store                // G[Idx] = A
	LoadPtr              // Dst = *Addr
	StorePtr             // *Addr = A
	AddrOf               // Dst = &G[Idx]     (Idx == NoReg for &G)
	Gep                  // Dst = A + B       (word-scaled address arithmetic)
	Alloca               // Dst = &fresh local block of Imm words
	Malloc               // Dst = &fresh heap block of Imm words
	CAS                  // Dst = (*Addr == A) ? (*Addr = B; 1) : 0, atomically
	FetchAdd             // Dst = *Addr; *Addr += A, atomically
	Fence                // memory fence; Imm is a FenceKind
	Br                   // if A != 0 goto Then else goto Else; block terminator
	Jmp                  // goto Then; block terminator
	Ret                  // return A (A == NoReg for void); block terminator
	Call                 // Dst = Callee(Args...)  (Dst may be NoReg)
	Spawn                // Dst = thread id of new thread running Callee(Args...)
	Join                 // wait for thread id in A
	Assert               // runtime check: fail with Msg if A == 0
	Print                // debugging: print A
	kindEnd              // sentinel; keep last
)

var kindNames = [...]string{
	Const: "const", Move: "move", BinOp: "binop", Load: "load", Store: "store",
	LoadPtr: "loadptr", StorePtr: "storeptr", AddrOf: "addrof", Gep: "gep",
	Alloca: "alloca", Malloc: "malloc", CAS: "cas", FetchAdd: "fetchadd",
	Fence: "fence", Br: "br", Jmp: "jmp", Ret: "ret", Call: "call",
	Spawn: "spawn", Join: "join", Assert: "assert", Print: "print",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FenceKind distinguishes the two fence strengths the paper's Section 4.4
// places: full hardware fences (MFENCE on x86-TSO, enforcing w→r) and
// compiler-only barriers (the "empty memory-clobbering assembly" that
// constrains the compiler but emits nothing).
type FenceKind int64

const (
	// FenceFull is a full hardware memory fence: it drains the store
	// buffer in the TSO simulator and orders everything.
	FenceFull FenceKind = iota
	// FenceCompiler is a compiler barrier: it pins compile-time order but
	// costs nothing at run time and does not constrain the hardware.
	FenceCompiler
)

func (f FenceKind) String() string {
	switch f {
	case FenceFull:
		return "full"
	case FenceCompiler:
		return "compiler"
	}
	return fmt.Sprintf("fencekind(%d)", int64(f))
}

// Instr is a single IR instruction. One concrete struct covers all kinds
// (the Kind field selects which operands are meaningful — see the constants
// above); instruction identity is pointer identity, which is what every
// analysis keys on.
type Instr struct {
	Kind   Kind
	Dst    Reg   // result register, or NoReg
	A, B   Reg   // generic operands (see per-Kind comments)
	Idx    Reg   // array index for Load/Store/AddrOf, or NoReg
	Addr   Reg   // pointer operand for LoadPtr/StorePtr/CAS/FetchAdd
	Op     Op    // operator for BinOp
	Imm    int64 // literal for Const, size for Alloca/Malloc, FenceKind for Fence
	G      *Global
	Callee string // callee name for Call/Spawn
	Args   []Reg  // call/spawn arguments
	Then   *Block // Br taken target; Jmp target
	Else   *Block // Br fall-through target
	Msg    string // Assert message

	// Synthetic marks an instruction inserted by a tool (fence placement)
	// rather than written by the "programmer"; the printers surface it and
	// experiment accounting keys on it.
	Synthetic bool

	blk *Block // owning block; maintained by Fn.renumber
	pos int    // index within blk.Instrs; maintained by Fn.renumber
}

// Block returns the basic block containing the instruction. It is valid
// after the owning Program (or Fn) has been finalized with Finalize.
func (i *Instr) Block() *Block { return i.blk }

// Pos returns the instruction's index within its block. It is valid after
// Finalize and is recomputed whenever instructions are inserted.
func (i *Instr) Pos() int { return i.pos }

// ReadsMem reports whether the instruction performs a shared-memory read.
// CAS and FetchAdd are read-modify-writes; per the paper's Section 3 they
// are treated as a read followed by a write at one program point.
func (i *Instr) ReadsMem() bool {
	switch i.Kind {
	case Load, LoadPtr, CAS, FetchAdd:
		return true
	}
	return false
}

// WritesMem reports whether the instruction performs a shared-memory write.
// A failed CAS does not write, but the analysis must treat it as a potential
// write, which is the conservative direction.
func (i *Instr) WritesMem() bool {
	switch i.Kind {
	case Store, StorePtr, CAS, FetchAdd:
		return true
	}
	return false
}

// IsAccess reports whether the instruction touches shared memory at all.
func (i *Instr) IsAccess() bool { return i.ReadsMem() || i.WritesMem() }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Instr) IsTerminator() bool {
	switch i.Kind {
	case Br, Jmp, Ret:
		return true
	}
	return false
}

// Def returns the register the instruction defines, or NoReg. Call and
// Spawn may legitimately discard their results (Dst == NoReg); all other
// value-producing kinds always define Dst.
func (i *Instr) Def() Reg {
	switch i.Kind {
	case Const, Move, BinOp, Load, LoadPtr, AddrOf, Gep, Alloca, Malloc, CAS, FetchAdd:
		return i.Dst
	case Call, Spawn:
		return i.Dst
	}
	return NoReg
}

// Uses returns the registers the instruction reads. The result is a fresh
// slice and may be retained by the caller.
func (i *Instr) Uses() []Reg { return i.AppendUses(nil) }

// AppendUses appends the registers the instruction reads to u and returns
// the extended slice, so a loop over many instructions can reuse one
// buffer.
func (i *Instr) AppendUses(u []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			u = append(u, r)
		}
	}
	switch i.Kind {
	case Const, Alloca, Malloc, Fence:
	case Move:
		add(i.A)
	case BinOp, Gep:
		add(i.A)
		add(i.B)
	case Load:
		add(i.Idx)
	case Store:
		add(i.Idx)
		add(i.A)
	case LoadPtr:
		add(i.Addr)
	case StorePtr:
		add(i.Addr)
		add(i.A)
	case AddrOf:
		add(i.Idx)
	case CAS:
		add(i.Addr)
		add(i.A)
		add(i.B)
	case FetchAdd:
		add(i.Addr)
		add(i.A)
	case Br, Ret, Join, Assert, Print:
		add(i.A)
	case Jmp:
	case Call, Spawn:
		for _, a := range i.Args {
			add(a)
		}
	}
	return u
}

// AddrOperand returns the register holding the pointer this instruction
// dereferences, or NoReg if the instruction addresses memory directly (via
// G) or does not access memory.
func (i *Instr) AddrOperand() Reg {
	switch i.Kind {
	case LoadPtr, StorePtr, CAS, FetchAdd:
		return i.Addr
	}
	return NoReg
}

// Global is a shared memory location: a scalar (Size 1) or a word array.
// Every Global thread-escapes by definition — it is reachable from every
// thread — which is exactly the Pensieve escape rule for globals.
type Global struct {
	Name string
	Size int     // number of words; must be >= 1
	Init []int64 // optional initial values (zero-filled if shorter than Size)
}

func (g *Global) String() string { return g.Name }

// Block is a basic block: straight-line instructions ending in a terminator.
type Block struct {
	Name   string
	Instrs []*Instr

	fn *Fn
	id int
}

// Fn returns the function owning the block (valid after Finalize).
func (b *Block) Fn() *Fn { return b.fn }

// ID returns the block's index within its function (valid after Finalize).
func (b *Block) ID() int { return b.id }

// Terminator returns the block's final instruction, or nil if the block is
// empty or unterminated (only possible before validation).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks in the CFG.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Kind {
	case Br:
		if t.Then == t.Else {
			return []*Block{t.Then}
		}
		return []*Block{t.Then, t.Else}
	case Jmp:
		return []*Block{t.Then}
	}
	return nil
}

// Insert places instr at index pos within the block (0 ≤ pos ≤ len). The
// owning function must be re-finalized before position queries are used.
func (b *Block) Insert(pos int, instr *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[pos+1:], b.Instrs[pos:])
	b.Instrs[pos] = instr
}

// Fn is a function: an entry block plus the rest of its CFG. Parameters
// arrive in registers 0..NParams-1.
type Fn struct {
	Name    string
	NParams int
	NRegs   int // registers are 0..NRegs-1
	Blocks  []*Block
}

// Entry returns the function's entry block (Blocks[0]).
func (f *Fn) Entry() *Block { return f.Blocks[0] }

// renumber refreshes the back-references (owning block, position, block id)
// that analyses rely on. It must run after any structural mutation. It
// writes only the references that are stale.
func (f *Fn) renumber() {
	for bi, b := range f.Blocks {
		if b.fn != f || b.id != bi {
			b.fn, b.id = f, bi
		}
		for pi, in := range b.Instrs {
			if in.blk != b || in.pos != pi {
				in.blk, in.pos = b, pi
			}
		}
	}
}

// Instrs calls visit for every instruction in the function, in block order.
func (f *Fn) Instrs(visit func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			visit(in)
		}
	}
}

// NumInstrs returns the total instruction count of the function.
func (f *Fn) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Program is a whole compilation unit: globals, functions and the name of
// the main function the interpreter starts in.
type Program struct {
	Name    string
	Globals []*Global
	Funcs   []*Fn
	Main    string

	byName  map[string]*Fn
	globals map[string]*Global
}

// Fn returns the function with the given name, or nil.
func (p *Program) Fn(name string) *Fn {
	if p.byName == nil {
		p.index()
	}
	return p.byName[name]
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	if p.globals == nil {
		p.index()
	}
	return p.globals[name]
}

func (p *Program) index() {
	p.byName = make(map[string]*Fn, len(p.Funcs))
	for _, f := range p.Funcs {
		p.byName[f.Name] = f
	}
	p.globals = make(map[string]*Global, len(p.Globals))
	for _, g := range p.Globals {
		p.globals[g.Name] = g
	}
}

// indexed reports whether the name indices are current: every function
// and global, and nothing else, is found under its name.
func (p *Program) indexed() bool {
	if p.byName == nil || p.globals == nil || len(p.byName) != len(p.Funcs) || len(p.globals) != len(p.Globals) {
		return false
	}
	for _, f := range p.Funcs {
		if p.byName[f.Name] != f {
			return false
		}
	}
	for _, g := range p.Globals {
		if p.globals[g.Name] != g {
			return false
		}
	}
	return true
}

// Finalize refreshes all derived indices and back-references. Call it after
// construction and after any structural mutation (e.g. fence insertion).
// On a program that is already finalized it only reads, so any number of
// goroutines may finalize, hash and explore one finalized program at once.
func (p *Program) Finalize() {
	if !p.indexed() {
		p.index()
	}
	for _, f := range p.Funcs {
		f.renumber()
	}
}

// NumInstrs returns the total instruction count of the program.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Validate checks structural invariants: every block is non-empty and
// terminator-ended, terminators only appear last, branch targets belong to
// the same function, register numbers are in range, callees and globals
// exist, and Main is defined. It returns the first violation found.
func (p *Program) Validate() error {
	p.Finalize()
	if p.Main != "" && p.Fn(p.Main) == nil {
		return fmt.Errorf("program %q: main function %q not defined", p.Name, p.Main)
	}
	for _, g := range p.Globals {
		if g.Size < 1 {
			return fmt.Errorf("global %q: size %d < 1", g.Name, g.Size)
		}
		if len(g.Init) > g.Size {
			return fmt.Errorf("global %q: %d initializers for size %d", g.Name, len(g.Init), g.Size)
		}
	}
	for _, f := range p.Funcs {
		if err := p.validateFn(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateFn(f *Fn) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("func %q: no blocks", f.Name)
	}
	if f.NParams > f.NRegs {
		return fmt.Errorf("func %q: NParams %d > NRegs %d", f.Name, f.NParams, f.NRegs)
	}
	inFn := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFn[b] = true
	}
	checkReg := func(b *Block, in *Instr, r Reg, what string) error {
		if r == NoReg {
			return nil
		}
		if int(r) < 0 || int(r) >= f.NRegs {
			return fmt.Errorf("func %q block %q: %s register r%d out of range [0,%d)", f.Name, b.Name, what, r, f.NRegs)
		}
		return nil
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("func %q: block %q is empty", f.Name, b.Name)
		}
		for pi, in := range b.Instrs {
			last := pi == len(b.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					return fmt.Errorf("func %q: block %q does not end in a terminator", f.Name, b.Name)
				}
				return fmt.Errorf("func %q: block %q has terminator %s at non-final position %d", f.Name, b.Name, in.Kind, pi)
			}
			if err := checkReg(b, in, in.Def(), "destination"); err != nil {
				return err
			}
			for _, u := range in.Uses() {
				if err := checkReg(b, in, u, "use of"); err != nil {
					return err
				}
			}
			switch in.Kind {
			case Br:
				if in.Then == nil || in.Else == nil || !inFn[in.Then] || !inFn[in.Else] {
					return fmt.Errorf("func %q block %q: br with foreign or nil target", f.Name, b.Name)
				}
			case Jmp:
				if in.Then == nil || !inFn[in.Then] {
					return fmt.Errorf("func %q block %q: jmp with foreign or nil target", f.Name, b.Name)
				}
			case Load, Store, AddrOf:
				if in.G == nil {
					return fmt.Errorf("func %q block %q: %s without global", f.Name, b.Name, in.Kind)
				}
				if p.Global(in.G.Name) != in.G {
					return fmt.Errorf("func %q block %q: %s references unregistered global %q", f.Name, b.Name, in.Kind, in.G.Name)
				}
			case Call, Spawn:
				callee := p.Fn(in.Callee)
				if callee == nil {
					return fmt.Errorf("func %q block %q: %s of undefined function %q", f.Name, b.Name, in.Kind, in.Callee)
				}
				if len(in.Args) != callee.NParams {
					return fmt.Errorf("func %q block %q: %s %q with %d args, want %d", f.Name, b.Name, in.Kind, in.Callee, len(in.Args), callee.NParams)
				}
			case Alloca, Malloc:
				if in.Imm < 1 {
					return fmt.Errorf("func %q block %q: %s of %d words", f.Name, b.Name, in.Kind, in.Imm)
				}
			case Fence:
				if fk := FenceKind(in.Imm); fk != FenceFull && fk != FenceCompiler {
					return fmt.Errorf("func %q block %q: unknown fence kind %d", f.Name, b.Name, in.Imm)
				}
			}
		}
	}
	return nil
}

// Clone produces a deep copy of the program along with instruction and block
// correspondence maps from the original to the copy. Analyses run on the
// original; instrumentation applies to the clone via the maps, so one
// analyzed program can be lowered under several fence-placement variants.
func (p *Program) Clone() (*Program, map[*Instr]*Instr, map[*Block]*Block) {
	np := &Program{Name: p.Name, Main: p.Main}
	gmap := make(map[*Global]*Global, len(p.Globals))
	for _, g := range p.Globals {
		ng := &Global{Name: g.Name, Size: g.Size, Init: append([]int64(nil), g.Init...)}
		gmap[g] = ng
		np.Globals = append(np.Globals, ng)
	}
	imap := make(map[*Instr]*Instr)
	bmap := make(map[*Block]*Block)
	for _, f := range p.Funcs {
		nf := &Fn{Name: f.Name, NParams: f.NParams, NRegs: f.NRegs}
		for _, b := range f.Blocks {
			nb := &Block{Name: b.Name}
			bmap[b] = nb
			nf.Blocks = append(nf.Blocks, nb)
		}
		for _, b := range f.Blocks {
			nb := bmap[b]
			for _, in := range b.Instrs {
				ni := &Instr{
					Kind: in.Kind, Dst: in.Dst, A: in.A, B: in.B, Idx: in.Idx,
					Addr: in.Addr, Op: in.Op, Imm: in.Imm, Callee: in.Callee,
					Msg: in.Msg, Synthetic: in.Synthetic,
					Args: append([]Reg(nil), in.Args...),
				}
				if in.G != nil {
					ni.G = gmap[in.G]
				}
				imap[in] = ni
				nb.Instrs = append(nb.Instrs, ni)
			}
		}
		np.Funcs = append(np.Funcs, nf)
	}
	// Patch branch targets now that every block has a copy.
	for old, ni := range imap {
		if old.Then != nil {
			ni.Then = bmap[old.Then]
		}
		if old.Else != nil {
			ni.Else = bmap[old.Else]
		}
	}
	np.Finalize()
	return np, imap, bmap
}

// CountFences returns the number of full fences and compiler barriers in the
// program, counting only tool-inserted (synthetic) ones when syntheticOnly
// is set.
func (p *Program) CountFences(syntheticOnly bool) (full, compiler int) {
	for _, f := range p.Funcs {
		f.Instrs(func(in *Instr) {
			if in.Kind != Fence || (syntheticOnly && !in.Synthetic) {
				return
			}
			if FenceKind(in.Imm) == FenceFull {
				full++
			} else {
				compiler++
			}
		})
	}
	return full, compiler
}

// String returns a short identifying description of the instruction for
// diagnostics; the full textual form lives in the printer.
func (i *Instr) String() string {
	var sb strings.Builder
	writeInstr(&sb, i)
	return sb.String()
}
