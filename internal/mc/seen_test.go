package mc

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"
	"time"
	"unsafe"

	"fenceplace/internal/ir"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// TestFingerprintMatchesExactSeen is the oracle check for the fingerprint
// seen-set: across the litmus corpus and instrumented (expert-fenced)
// corpus kernels, exploration keyed by 128-bit fingerprints must produce
// exactly the outcome set and visit count of exploration keyed by full
// canonical encodings. Visit counts are compared at one worker, where the
// sleep-set protocol is deterministic; any fingerprint collision would
// merge distinct states and show up as a visit-count or outcome drift.
func TestFingerprintMatchesExactSeen(t *testing.T) {
	type tc struct {
		name    string
		prog    *ir.Program
		threads []string
	}
	cases := []tc{
		{"sb", sb(false), []string{"t0", "t1"}},
		{"sb+f", sb(true), []string{"t0", "t1"}},
		{"mp", mp(), []string{"t0", "t1"}},
		{"lb", lb(), []string{"t0", "t1"}},
		{"ring3", medium3(), []string{"t0", "t1", "t2"}},
	}
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		pp.Manual = true
		cases = append(cases, tc{name + "/manual", m.Build(pp), nil})
	}
	for _, c := range cases {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			t.Run(fmt.Sprintf("%s/%s", c.name, mode), func(t *testing.T) {
				fp, err := Explore(c.prog, c.threads, Config{Mode: mode, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				exact, err := Explore(c.prog, c.threads, Config{Mode: mode, Workers: 1, ExactSeen: true})
				if err != nil {
					t.Fatal(err)
				}
				if fp.Truncated || exact.Truncated {
					t.Fatal("exploration truncated")
				}
				sameKeys(t, "fingerprint vs exact outcomes", keySet(fp.Outcomes), keySet(exact.Outcomes))
				for k, vec := range exact.Outcomes {
					got := fp.Outcomes[k]
					if len(got) != len(vec) {
						t.Fatalf("outcome %s: vector length %d vs %d", k, len(got), len(vec))
					}
					for i := range vec {
						if got[i] != vec[i] {
							t.Fatalf("outcome %s: globals %v vs %v", k, got, vec)
						}
					}
				}
				if fp.Visited != exact.Visited {
					t.Errorf("visit counts diverge: fingerprint %d, exact %d", fp.Visited, exact.Visited)
				}
			})
		}
	}
}

// TestFingerprintMatchesExactSeenRandom fuzzes flat programs through both
// seen-set modes (the same generator as the POR differential, different
// seed) so the oracle check is not limited to hand-picked shapes.
func TestFingerprintMatchesExactSeenRandom(t *testing.T) {
	progsByName := randomPrograms(20260729, 25)
	for name, p := range progsByName {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			fp, err := Explore(p, []string{"t0", "t1"}, Config{Mode: mode, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Explore(p, []string{"t0", "t1"}, Config{Mode: mode, Workers: 1, ExactSeen: true})
			if err != nil {
				t.Fatal(err)
			}
			sameKeys(t, fmt.Sprintf("%s/%s fingerprint vs exact", name, mode),
				keySet(fp.Outcomes), keySet(exact.Outcomes))
			if fp.Visited != exact.Visited {
				t.Errorf("%s/%s: visit counts diverge: fingerprint %d, exact %d", name, mode, fp.Visited, exact.Visited)
			}
		}
	}
}

// seenBudgets are the starting sizes the growth differentials sweep, in
// bytes of seen set across all shards: 1 byte starts every shard at one
// slot, so each table doubles on almost every early insert (the most
// rehash-heavy schedule); 4 KiB starts every shard at two slots; 1 MiB
// presizes every shard past what these programs store, so nothing grows;
// -1 keeps the default lazy start at minSlots.
var seenBudgets = []int64{1, 4 << 10, 1 << 20, -1}

// exploreWithBudget is Explore with every shard's table presized from a
// seen-set byte budget (see seenBudgets). It returns the engine too, so a
// test can inspect the tables the exploration left.
func exploreWithBudget(p *ir.Program, threads []string, cfg Config, budget int64) (*StateSet, *engine, error) {
	e, init, err := newEngine(p, threads, cfg)
	if err != nil {
		return nil, nil, err
	}
	if budget > 0 {
		const slotBytes = int64(unsafe.Sizeof(uint16(0)) + unsafe.Sizeof(fpEntry{}))
		per := budget / (slotBytes * nShards)
		slots := 1
		for int64(2*slots) <= per {
			slots *= 2
		}
		for i := range e.shards {
			e.shards[i].grow(slots)
		}
	}
	res, err := e.explore(context.Background(), init, time.Now())
	return res, e, err
}

// TestTwoLevelSeenMatchesExactSeen is the oracle check for the seen-set
// table across its growth schedules (the name predates the single table:
// the budget is now the table's starting size, no longer a tier bound).
// Across litmus programs and instrumented corpus kernels, every starting
// budget, including the 1-byte one that rehashes on almost every early
// insert, must reproduce exactly the outcome sets AND visit counts of the
// exact string-keyed oracle. Visit counts are compared at one worker,
// where the sleep-set protocol is deterministic; a fingerprint or sleep
// mask lost in a rehash shows up as a drift here.
func TestTwoLevelSeenMatchesExactSeen(t *testing.T) {
	type tc struct {
		name    string
		prog    *ir.Program
		threads []string
	}
	cases := []tc{
		{"sb", sb(false), []string{"t0", "t1"}},
		{"sb+f", sb(true), []string{"t0", "t1"}},
		{"mp", mp(), []string{"t0", "t1"}},
		{"lb", lb(), []string{"t0", "t1"}},
		{"ring3", medium3(), []string{"t0", "t1", "t2"}},
	}
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		pp.Manual = true
		cases = append(cases, tc{name + "/manual", m.Build(pp), nil})
	}
	for _, c := range cases {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			exact, err := Explore(c.prog, c.threads, Config{Mode: mode, Workers: 1, ExactSeen: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range seenBudgets {
				t.Run(fmt.Sprintf("%s/%s/budget=%d", c.name, mode, budget), func(t *testing.T) {
					fp, e, err := exploreWithBudget(c.prog, c.threads, Config{Mode: mode, Workers: 1}, budget)
					if err != nil {
						t.Fatal(err)
					}
					if fp.Truncated || exact.Truncated {
						t.Fatal("exploration truncated")
					}
					sameKeys(t, "table vs exact outcomes", keySet(fp.Outcomes), keySet(exact.Outcomes))
					for k, vec := range exact.Outcomes {
						got := fp.Outcomes[k]
						if len(got) != len(vec) {
							t.Fatalf("outcome %s: vector length %d vs %d", k, len(got), len(vec))
						}
						for i := range vec {
							if got[i] != vec[i] {
								t.Fatalf("outcome %s: globals %v vs %v", k, got, vec)
							}
						}
					}
					if fp.Visited != exact.Visited {
						t.Errorf("visit counts diverge: table %d, exact %d", fp.Visited, exact.Visited)
					}
					stored := 0
					for i := range e.shards {
						stored += e.shards[i].n
					}
					if budget == 1 && stored > nShards {
						grown := false
						for i := range e.shards {
							grown = grown || len(e.shards[i].tags) > 1
						}
						if !grown {
							t.Errorf("%d states stored in one-slot tables: no shard grew", stored)
						}
					}
				})
			}
		}
	}
}

// TestTwoLevelSeenMatchesExactSeenRandom fuzzes flat random programs
// through the 1-byte starting budget (a fresh generator seed, so the
// shapes differ from the other differentials): the most rehashes over
// unpredictable sleep-set interleavings.
func TestTwoLevelSeenMatchesExactSeenRandom(t *testing.T) {
	progsByName := randomPrograms(20260807, 15)
	for name, p := range progsByName {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			fp, _, err := exploreWithBudget(p, []string{"t0", "t1"}, Config{Mode: mode, Workers: 1}, 1)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Explore(p, []string{"t0", "t1"}, Config{Mode: mode, Workers: 1, ExactSeen: true})
			if err != nil {
				t.Fatal(err)
			}
			sameKeys(t, fmt.Sprintf("%s/%s table vs exact", name, mode),
				keySet(fp.Outcomes), keySet(exact.Outcomes))
			if fp.Visited != exact.Visited {
				t.Errorf("%s/%s: visit counts diverge: table %d, exact %d", name, mode, fp.Visited, exact.Visited)
			}
		}
	}
}

// TestSeenGrowsConcurrently re-runs one differential with the full
// worker pool and one-slot starting tables: outcome sets (visit counts are
// schedule-dependent under >1 workers) must survive tables growing while
// other workers probe their neighbours.
func TestSeenGrowsConcurrently(t *testing.T) {
	p := medium3()
	exact, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 1, ExactSeen: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := exploreWithBudget(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO}, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "concurrent table vs exact outcomes", keySet(fp.Outcomes), keySet(exact.Outcomes))
}

// TestExploreSteadyStateAllocs is the allocation regression test for the
// hot path: exploring a program whose state space dwarfs the engine's
// fixed setup cost must allocate per exploration, not per state. ring3
// visits thousands of states under TSO; the bound below is a multiple of
// the engine's setup footprint (shard tables, worker scratch, channel) and
// two orders of magnitude under a states-proportional count.
func TestExploreSteadyStateAllocs(t *testing.T) {
	p := medium3()
	var visited int64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		visited = res.Visited
	})
	if visited < 1000 {
		t.Fatalf("ring3 visited only %d states; the bound below is meaningless", visited)
	}
	const maxAllocs = 400
	if allocs > maxAllocs {
		t.Errorf("Explore allocated %.0f times for %d states (budget %d): the steady state is allocating again",
			allocs, visited, maxAllocs)
	}
	t.Logf("%.0f allocs for %d states", allocs, visited)
}

// TestHash128Vectors pins the murmur3 x64/128 implementation to reference
// digests so a silent change to the fingerprint function cannot slip in.
func TestHash128Vectors(t *testing.T) {
	cases := []struct {
		in     string
		hi, lo uint64
	}{
		// Reference values from the canonical C++ MurmurHash3_x64_128
		// (seed 0), little-endian digest split into two words.
		{"", 0, 0},
		{"hello", 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		// Wikipedia quotes this digest as the byte stream
		// 6c1b07bc7bbc4be3 47939ac4a93c437a; the words below are its two
		// little-endian uint64 halves, matching the convention above.
		{"The quick brown fox jumps over the lazy dog", 0xe34bbc7bbc071b6c, 0x7a433ca9c49a9347},
	}
	for _, c := range cases {
		got := hash128([]byte(c.in))
		if got.hi != c.hi || got.lo != c.lo {
			t.Errorf("hash128(%q) = %016x%016x, want %016x%016x", c.in, got.hi, got.lo, c.hi, c.lo)
		}
	}
}

// TestHash128wMatchesBytes pins hash128w to hash128 over the words'
// little-endian bytes, for even and odd word counts (a whole number of
// 16-byte blocks, or one 8-byte tail word).
func TestHash128wMatchesBytes(t *testing.T) {
	w := make([]uint64, 41)
	for i := range w {
		w[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	for n := 0; n <= len(w); n++ {
		if got, want := hash128w(w[:n]), hash128(appendWordBytes(nil, w[:n])); got != want {
			t.Errorf("%d words: hash128w = %016x%016x, hash128 of the bytes = %016x%016x", n, got.hi, got.lo, want.hi, want.lo)
		}
	}
}

// TestFireFingerprintAllocs pins the per-transition path: firing every
// transition of a state into a warm child shell — copy, step, normalize
// and the fingerprint update — and taking the child's fingerprint
// allocate nothing.
func TestFireFingerprintAllocs(t *testing.T) {
	e, s, err := newEngine(medium3(), []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := &workerCtx{}
	if _, _, ok := e.normalize(w, s, 0, 0); !ok {
		t.Fatal(e.err)
	}
	w.encBuf = e.components(s, w.encBuf)
	e.analyze(s, &w.an)
	if bits.OnesCount32(w.an.enabled) < 4 {
		t.Fatalf("root enables %#x: too few transitions to measure", w.an.enabled)
	}
	child := &state{}
	var h h128
	fireAll := func() {
		for todo := w.an.enabled; todo != 0; todo &= todo - 1 {
			if _, ok := e.fire(w, &w.an, s, child, bits.TrailingZeros32(todo), 0); !ok {
				t.Fatal(e.err)
			}
			h = fingerprint(child)
		}
	}
	fireAll() // grow the child shell and the word buffer
	if allocs := testing.AllocsPerRun(100, fireAll); allocs != 0 {
		t.Errorf("fire + fingerprint allocated %.1f times per state, want 0", allocs)
	}
	if h == (h128{}) {
		t.Error("zero fingerprint")
	}
}

// testFP derives a deterministic fingerprint stream for the table tests.
func testFP(i int) h128 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return hash128(b[:])
}

// TestHotProbeAllocFree pins the seen-set probe at zero allocations: a hit
// on a present fingerprint and a miss that inserts an absent one. The
// fill before the probes grows the table at least three times, and every
// fingerprint inserted across those growths must still be found. The
// shard starts from a fresh minSlots table, not one tablePool recycled.
func TestHotProbeAllocFree(t *testing.T) {
	var sh seenShard
	const n = 1000
	sh.mu.Lock()
	sh.grow(minSlots)
	for i := 0; i < n; i++ {
		if need, _ := sh.visit(testFP(i), 0); !need {
			t.Fatalf("fresh fingerprint %d reported seen", i)
		}
	}
	slots := len(sh.tags)
	if slots < minSlots<<3 {
		t.Fatalf("%d inserts left the table at %d slots: fewer than 3 growths from %d", n, slots, minSlots)
	}
	for i := 0; i < n; i++ {
		if need, _ := sh.visit(testFP(i), 0); need {
			t.Fatalf("fingerprint %d lost across growths", i)
		}
	}
	sh.mu.Unlock()

	probe := func(name string, fn func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per probe, want 0", name, allocs)
		}
	}
	i := 0
	probe("hit", func() {
		sh.mu.Lock()
		if need, _ := sh.visit(testFP(i%n), 0); need {
			t.Fatal("present fingerprint reported unseen")
		}
		sh.mu.Unlock()
		i++
	})
	j := n
	probe("miss", func() {
		sh.mu.Lock()
		if need, _ := sh.visit(testFP(j), 0); !need {
			t.Fatal("absent fingerprint reported seen")
		}
		sh.mu.Unlock()
		j++
	})
	if len(sh.tags) != slots {
		t.Fatalf("the miss probes grew the table from %d to %d slots: the alloc count measured a growth", slots, len(sh.tags))
	}
}

// TestSeenNarrowsSleepMasks drives the mask-narrowing protocol directly:
// a state first seen with a permissive sleep mask, then revisited with a
// narrower one, must wake exactly the previously slept transitions and
// store the narrowed mask.
func TestSeenNarrowsSleepMasks(t *testing.T) {
	var sh seenShard
	h := testFP(42)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	if need, _ := sh.visit(h, 0b1100); !need {
		t.Fatal("first visit pruned")
	}
	// Stored 1100, probe 0100: prev&^sleep = 1000 must wake.
	need, revisit := sh.visit(h, 0b0100)
	if !need || revisit != 0b1000 {
		t.Fatalf("revisit: need=%v revisit=%04b, want true 1000", need, revisit)
	}
	// The narrowed mask (0100) is stored: a probe with 0100 is covered, a
	// probe with 0000 wakes the remaining bit.
	if need, _ := sh.visit(h, 0b0100); need {
		t.Fatal("narrowed mask not honored: probe with equal sleep re-expanded")
	}
	need, revisit = sh.visit(h, 0)
	if !need || revisit != 0b0100 {
		t.Fatalf("final narrowing: need=%v revisit=%04b, want true 0100", need, revisit)
	}
}
