package mc

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// sbProgram builds the store-buffering litmus program deterministically —
// the fixed input behind the golden key vectors.
func sbProgram() *ir.Program {
	pb := ir.NewProgram("sb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	t0.Store(o0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(y, t1.Const(1))
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	return pb.MustBuild()
}

// spawnProgram is a second fixed input: main spawning a worker, with a
// fence, exercising calls, spawns and branch targets in the key preimage.
func spawnProgram() *ir.Program {
	pb := ir.NewProgram("spawny")
	g := pb.Global("g", 2)
	w := pb.Func("worker", 1)
	w.StoreIdx(g, w.Param(0), w.Const(7))
	w.RetVoid()
	m := pb.Func("main", 0)
	tid := m.Spawn("worker", m.Const(0))
	m.Fence(ir.FenceFull)
	m.Join(tid)
	m.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}

// TestBaselineKeyGolden pins the canonical key derivation to fixed hex
// vectors: any process, on any machine, hashing these programs must derive
// exactly these keys, or warm-starting across processes silently breaks.
// If the key schema changes intentionally, bump keySchema and regenerate.
func TestBaselineKeyGolden(t *testing.T) {
	cases := []struct {
		name    string
		prog    *ir.Program
		threads []string
		want    string
	}{
		{"sb-threads", sbProgram(), []string{"t0", "t1"}, "c5b27df47b1a3c69efcd777ac7b4e8d9"},
		{"sb-main", sbProgram(), nil, "7abb50e0905cc9c755a795a7d9dc9e22"},
		{"spawny", spawnProgram(), nil, "7ffa828b409dba720d1d0daacf51634a"},
	}
	// Regenerate the vectors with `go test -run BaselineKeyGolden -v` after
	// an intentional keySchema bump.
	for _, tc := range cases {
		key := BaselineKey(tc.prog, tc.threads, Config{})
		if key.String() != tc.want {
			t.Errorf("%s: key %s, want golden %s", tc.name, key, tc.want)
		}
	}
}

// TestBaselineKeyDeterminismAndSensitivity: two independent builds of one
// program share a key; semantic differences (an extra fence, a different
// thread set, a different memory cap) change it; search-shaping config
// (workers, budget, seen-set mode, POR, buffer capacity) does not.
func TestBaselineKeyDeterminismAndSensitivity(t *testing.T) {
	base := BaselineKey(sbProgram(), []string{"t0", "t1"}, Config{})
	if again := BaselineKey(sbProgram(), []string{"t0", "t1"}, Config{}); again != base {
		t.Fatalf("independent builds of one program disagree: %s vs %s", base, again)
	}

	// Search-shaping config fields must not perturb the key.
	for name, cfg := range map[string]Config{
		"workers":   {Workers: 3},
		"budget":    {MaxStates: 1 << 10},
		"exactseen": {ExactSeen: true},
		"nopor":     {NoPOR: true},
		"buffercap": {BufferCap: 2},
		"mode":      {Mode: tso.TSO}, // a baseline is SC by definition
	} {
		if k := BaselineKey(sbProgram(), []string{"t0", "t1"}, cfg); k != base {
			t.Errorf("%s changed the key: %s vs %s", name, k, base)
		}
	}

	// Semantic inputs must perturb it.
	if k := BaselineKey(sbProgram(), []string{"t1", "t0"}, Config{}); k == base {
		t.Error("thread order did not change the key")
	}
	if k := BaselineKey(sbProgram(), []string{"t0", "t1"}, Config{MemoryCap: 1 << 10}); k == base {
		t.Error("memory cap did not change the key")
	}
	fenced := sbProgram()
	fn := fenced.Fn("t0")
	fn.Blocks[0].Insert(1, &ir.Instr{Kind: ir.Fence, Imm: int64(ir.FenceFull)})
	fenced.Finalize()
	if k := BaselineKey(fenced, []string{"t0", "t1"}, Config{}); k == base {
		t.Error("an inserted fence did not change the key")
	}

	// Names are metadata: a renamed clone keys identically.
	clone, _, _ := sbProgram().Clone()
	clone.Name = "renamed"
	if k := BaselineKey(clone, []string{"t0", "t1"}, Config{}); k != base {
		t.Errorf("program rename changed the key: %s vs %s", k, base)
	}
}

// roundTrip marshals a baseline and decodes it back against the same
// inputs, failing the test on any mismatch.
func roundTrip(t *testing.T, b *Baseline) *Baseline {
	t.Helper()
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal %s: %v", b.Prog.Name, err)
	}
	got, err := UnmarshalBaseline(b.Prog, b.ThreadFns, b.Cfg, data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", b.Prog.Name, err)
	}
	if got.SC.Visited != b.SC.Visited {
		t.Errorf("%s: visited %d, want %d", b.Prog.Name, got.SC.Visited, b.SC.Visited)
	}
	if !reflect.DeepEqual(got.SC.Outcomes, b.SC.Outcomes) {
		t.Errorf("%s: outcome sets disagree after round trip", b.Prog.Name)
	}
	if got.SC.Truncated {
		t.Errorf("%s: decoded baseline claims truncation", b.Prog.Name)
	}
	if got.Cfg.Mode != tso.SC {
		t.Errorf("%s: decoded baseline config is not SC", b.Prog.Name)
	}
	return got
}

// TestBaselineCodecRoundTrip explores small programs and pins the codec:
// encode → decode reproduces the exact outcome set and visit count, and
// the encoding itself is deterministic (sorted keys), so two processes
// storing the same baseline write identical bytes.
func TestBaselineCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		prog    *ir.Program
		threads []string
	}{
		{sbProgram(), []string{"t0", "t1"}},
		{spawnProgram(), nil},
	} {
		b, err := NewBaselineCtx(context.Background(), tc.prog, tc.threads, Config{})
		if err != nil {
			t.Fatalf("baseline %s: %v", tc.prog.Name, err)
		}
		if len(b.SC.Outcomes) == 0 {
			t.Fatalf("%s: baseline with no outcomes", tc.prog.Name)
		}
		roundTrip(t, b)

		d1, _ := b.MarshalBinary()
		d2, _ := b.MarshalBinary()
		if string(d1) != string(d2) {
			t.Errorf("%s: non-deterministic encoding", tc.prog.Name)
		}
	}
}

// TestBaselineCodecCorruption: a damaged record must decode to an error —
// never a panic, never a silently wrong baseline. Truncations at every
// prefix length and single-bit flips across the whole record are exercised;
// flips must either fail decoding or decode without panicking (the store's
// checksum layer is what rejects them — this guards the codec itself).
func TestBaselineCodecCorruption(t *testing.T) {
	b, err := NewBaselineCtx(context.Background(), sbProgram(), []string{"t0", "t1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	decode := func(d []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked on corrupt input: %v", r)
			}
		}()
		_, err = UnmarshalBaseline(b.Prog, b.ThreadFns, b.Cfg, d)
		return err
	}

	for n := 0; n < len(data); n++ {
		if decode(data[:n]) == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	for i := range data {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[i] ^= bit
			decode(mut) // must not panic; error or benign decode both fine
		}
	}
	if decode(append(append([]byte(nil), data...), 0)) == nil {
		t.Error("trailing byte decoded successfully")
	}
	if decode([]byte("FPB\x02")) == nil {
		t.Error("future version decoded successfully")
	}
}

// TestExplorationKeyGoldenAndSensitivity pins the TSO exploration key: a
// golden vector, SC keys equal to BaselineKey bit for bit, and the same
// split between semantic inputs (which change the key) and search-shaping
// knobs (which do not).
func TestExplorationKeyGoldenAndSensitivity(t *testing.T) {
	threads := []string{"t0", "t1"}
	tsoKey := func(p *ir.Program, threads []string, cfg Config) Key {
		cfg.Mode = tso.TSO
		return ExplorationKey(p, threads, cfg)
	}
	base := tsoKey(sbProgram(), threads, Config{})
	// Regenerate after an intentional keySchema or tsoSchema bump, like
	// the baseline vectors above. tsoSchema 1 moved it from
	// 061adbeafde221cf2d94a3cea6c99d13.
	if want := "333e7a1169b8d5f21bcf171666ae7f50"; base.String() != want {
		t.Errorf("TSO key %s, want golden %s", base, want)
	}

	for _, tc := range []struct {
		prog    *ir.Program
		threads []string
	}{{sbProgram(), threads}, {sbProgram(), nil}, {spawnProgram(), nil}} {
		sc := ExplorationKey(tc.prog, tc.threads, Config{Mode: tso.SC})
		if bk := BaselineKey(tc.prog, tc.threads, Config{}); sc != bk {
			t.Errorf("%s: SC exploration key %s, BaselineKey %s", tc.prog.Name, sc, bk)
		}
		if tk := tsoKey(tc.prog, tc.threads, Config{}); tk == sc {
			t.Errorf("%s: TSO and SC explorations share key %s", tc.prog.Name, tk)
		}
	}

	for name, cfg := range map[string]Config{
		"workers": {Workers: 3},
		"budget":  {MaxStates: 1 << 10},
		"exact":   {ExactSeen: true},
		"nopor":   {NoPOR: true},
	} {
		if k := tsoKey(sbProgram(), threads, cfg); k != base {
			t.Errorf("%s changed the TSO key: %s vs %s", name, k, base)
		}
	}

	if k := tsoKey(sbProgram(), threads, Config{BufferCap: 2}); k == base {
		t.Error("buffer capacity did not change the TSO key")
	}
	if k := tsoKey(sbProgram(), threads, Config{MemoryCap: 1 << 10}); k == base {
		t.Error("memory cap did not change the TSO key")
	}
	if k := tsoKey(sbProgram(), []string{"t1", "t0"}, Config{}); k == base {
		t.Error("thread order did not change the TSO key")
	}
	// t0 is Const, Store x, Load y, Store o0, Ret: a full fence after the
	// store (index 2) orders it before the load.
	fenced := withFences(sbProgram(), "t0", ir.FenceFull, 2)
	fencedKey := tsoKey(fenced, threads, Config{})
	if fencedKey == base {
		t.Error("an inserted fence did not change the TSO key")
	}

	// Fences that cannot change a TSO execution leave the key alone: a
	// compiler barrier anywhere, and a full fence that only ever drains an
	// empty buffer — at thread entry, before the thread's first store, or
	// right after another full fence.
	for pos := 0; pos < len(sbProgram().Fn("t0").Blocks[0].Instrs); pos++ {
		if k := tsoKey(withFences(sbProgram(), "t0", ir.FenceCompiler, pos), threads, Config{}); k != base {
			t.Errorf("a compiler barrier at t0[%d] changed the TSO key", pos)
		}
	}
	for _, pos := range []int{0, 1} {
		if k := tsoKey(withFences(sbProgram(), "t0", ir.FenceFull, pos), threads, Config{}); k != base {
			t.Errorf("a full fence at t0[%d], before any store, changed the TSO key", pos)
		}
	}
	if k := tsoKey(withFences(sbProgram(), "t0", ir.FenceFull, 2, 3), threads, Config{}); k != fencedKey {
		t.Error("a full fence right after a full fence changed the TSO key")
	}

	// And right after Spawn, CAS or FetchAdd, which drain the buffer.
	for _, tc := range []struct {
		prog  *ir.Program
		drain ir.Kind
	}{{spawnProgram(), ir.Spawn}, {drainProgram(true), ir.CAS}, {drainProgram(false), ir.FetchAdd}} {
		k := tsoKey(tc.prog, nil, Config{})
		entry := tc.prog.Fn("main").Blocks[0]
		pos := slices.IndexFunc(entry.Instrs, func(in *ir.Instr) bool { return in.Kind == tc.drain })
		if got := tsoKey(withFences(tc.prog, "main", ir.FenceFull, pos+1), nil, Config{}); got != k {
			t.Errorf("a full fence right after %s changed the TSO key", tc.drain)
		}
	}
	// drainProgram buffers its store at index 1: a fence after it counts.
	if tsoKey(withFences(drainProgram(true), "main", ir.FenceFull, 2), nil, Config{}) == tsoKey(drainProgram(true), nil, Config{}) {
		t.Error("a full fence after a buffered store did not change the TSO key")
	}
	// spawnProgram's fence after the Spawn is itself a no-op.
	noFence := spawnProgram()
	noFence.Fn("main").Blocks[0].Instrs = slices.Delete(noFence.Fn("main").Blocks[0].Instrs, 2, 3)
	noFence.Finalize()
	if tsoKey(noFence, nil, Config{}) != tsoKey(spawnProgram(), nil, Config{}) {
		t.Error("deleting spawnProgram's fence after the Spawn changed the TSO key")
	}
}

// TestExplorationRecordKinds round-trips a TSO outcome set, and checks
// that a record of one kind never decodes as the other and that
// RecordKind tells them apart.
func TestExplorationRecordKinds(t *testing.T) {
	ts, err := ExploreCompleteCtx(context.Background(), sbProgram(), []string{"t0", "t1"}, Config{Mode: tso.TSO})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalExploration(tso.TSO, ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalExploration(tso.TSO, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Visited != ts.Visited || !reflect.DeepEqual(got.Outcomes, ts.Outcomes) {
		t.Errorf("TSO record round trip: got %d visited / %d outcomes, want %d / %d",
			got.Visited, len(got.Outcomes), ts.Visited, len(ts.Outcomes))
	}
	if _, err := UnmarshalExploration(tso.SC, data); err == nil {
		t.Error("a TSO record decoded as an SC baseline")
	}
	if _, err := UnmarshalBaseline(sbProgram(), nil, Config{}, data); err == nil {
		t.Error("a TSO record decoded through UnmarshalBaseline")
	}

	b, err := NewBaselineCtx(context.Background(), sbProgram(), []string{"t0", "t1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scData, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if viaSet, _ := MarshalExploration(tso.SC, b.SC); string(viaSet) != string(scData) {
		t.Error("MarshalExploration(SC) and Baseline.MarshalBinary disagree")
	}
	if _, err := UnmarshalExploration(tso.TSO, scData); err == nil {
		t.Error("an SC baseline decoded as a TSO record")
	}
	for _, tc := range []struct {
		data []byte
		want string
	}{{scData, "SC-baseline"}, {data, "TSO-outcomes"}, {[]byte("FPT\x02"), "unknown"}, {nil, "unknown"}} {
		if k := RecordKind(tc.data); k != tc.want {
			t.Errorf("RecordKind(%q...) = %s, want %s", tc.data[:min(4, len(tc.data))], k, tc.want)
		}
	}

	ts.Truncated = true
	if _, err := MarshalExploration(tso.TSO, ts); err == nil {
		t.Error("a truncated exploration marshaled")
	}
}

// withFences inserts a fence of kind k into fn's entry block of p at each
// position of pos, in order, and returns p.
func withFences(p *ir.Program, fn string, k ir.FenceKind, pos ...int) *ir.Program {
	for _, i := range pos {
		p.Fn(fn).Blocks[0].Insert(i, &ir.Instr{Kind: ir.Fence, Imm: int64(k)})
	}
	p.Finalize()
	return p
}

// drainProgram's main buffers a store to x (Const, Store x: indices 0
// and 1), drains it with a CAS or a FetchAdd on y and then loads z.
func drainProgram(cas bool) *ir.Program {
	pb := ir.NewProgram("drain")
	x, y, z := pb.Global("x", 1), pb.Global("y", 1), pb.Global("z", 1)
	m := pb.Func("main", 0)
	m.Store(x, m.Const(1))
	addr := m.AddrOf(y)
	if cas {
		m.CAS(addr, m.Const(0), m.Const(1))
	} else {
		m.FetchAdd(addr, m.Const(1))
	}
	m.Store(x, m.Load(z))
	m.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}
