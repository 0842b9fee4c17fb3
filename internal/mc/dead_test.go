package mc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// usesSrc hosts one instruction under test at the top of f. main calls f
// (so a Ret has a caller whose retDst it writes) after buffering a store,
// and the second thread finishes at once (so a Join of thread 1 is
// enabled). Every register of f is printed afterwards: nothing is dead
// after the instruction, so killing cannot mask what it wrote.
const usesSrc = `
program uses
global g 4
global h 1
main main

func main params=0 regs=2 {
entry:
  r1 = const 3
  store h, r1
  r0 = call f()
  print r0
  ret
}

func f params=0 regs=5 {
entry:
  %s
tail:
  print r0
  print r1
  print r2
  print r3
  print r4
  ret
tail2:
  print r0
  print r1
  print r2
  print r3
  print r4
  ret
}

func callee params=2 regs=2 {
entry:
  print r0
  print r1
  ret
}

func other params=0 regs=0 {
entry:
  ret
}
`

// TestStepReadsOnlyUses pins the contract the dead-register reduction
// rests on: applyStep and analyze read only the registers ir.Instr.Uses
// reports, for every instruction kind. Two states that differ only in the
// executing frame's other registers must have the same enabledness and
// footprint and take the same step.
func TestStepReadsOnlyUses(t *testing.T) {
	const g, h = 1, 5 // word addresses of g[0] and h
	cases := []struct {
		instr string
		vals  map[ir.Reg]int64 // values of the used registers
	}{
		{"r1 = const 7", nil},
		{"r1 = move r2", map[ir.Reg]int64{2: 5}},
		{"r1 = sub r2, r3", map[ir.Reg]int64{2: 5, 3: 7}},
		{"r1 = load g[r2]", map[ir.Reg]int64{2: 2}},
		{"r1 = load h", nil},
		{"store g[r2], r3", map[ir.Reg]int64{2: 1, 3: 9}},
		{"r1 = loadptr r2", map[ir.Reg]int64{2: h}},
		{"storeptr r2, r3", map[ir.Reg]int64{2: g + 3, 3: 4}},
		{"r1 = addrof g[r2]", map[ir.Reg]int64{2: 3}},
		{"r1 = gep r2, r3", map[ir.Reg]int64{2: g, 3: 2}},
		{"r1 = alloca 2", nil},
		{"r1 = malloc 3", nil},
		{"r1 = cas r2, r3, r4", map[ir.Reg]int64{2: h, 3: 0, 4: 8}},
		{"r1 = fetchadd r2, r3", map[ir.Reg]int64{2: g + 1, 3: 2}},
		{"fence full", nil},
		{"fence compiler", nil},
		{"br r2, tail, tail2", map[ir.Reg]int64{2: 1}},
		{"br r2, tail, tail2", map[ir.Reg]int64{2: 0}},
		{"jmp tail2", nil},
		{"ret r2", map[ir.Reg]int64{2: 6}},
		{"r1 = call callee(r2, r3)", map[ir.Reg]int64{2: 4, 3: 5}},
		{"r1 = spawn callee(r3, r2)", map[ir.Reg]int64{2: 4, 3: 5}},
		{"join r2", map[ir.Reg]int64{2: 1}},
		{"assert r2, \"m\"", map[ir.Reg]int64{2: 0}},
		{"print r2", map[ir.Reg]int64{2: 3}},
	}
	covered := make(map[ir.Kind]bool)
	for _, c := range cases {
		src := c.instr
		if !strings.HasPrefix(src, "br ") && !strings.HasPrefix(src, "jmp ") && !strings.HasPrefix(src, "ret ") {
			src += "\n  jmp tail"
		}
		p, err := ir.Parse(fmt.Sprintf(usesSrc, src))
		if err != nil {
			t.Fatalf("%s: %v", c.instr, err)
		}
		in := p.Fn("f").Entry().Instrs[0]
		covered[in.Kind] = true
		uses := in.Uses()
		for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
			label := fmt.Sprintf("%s/%s", c.instr, mode)
			e, init, err := newEngine(p, []string{"main", "other"}, Config{Mode: mode, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// main: const, store, call f; other: ret.
			for _, tid := range []int{0, 0, 0, 1} {
				if err := e.applyStep(init, tid); err != nil {
					t.Fatalf("%s: setup: %v", label, err)
				}
			}
			// s[0] and s[1] agree on the used registers and disagree on
			// every other register of f's frame.
			var s [2]*state
			for k := range s {
				s[k] = init.clone()
				f := s[k].threads[0].top()
				for r := range f.regs {
					if slices.Contains(uses, ir.Reg(r)) {
						f.regs[r] = c.vals[ir.Reg(r)]
					} else {
						f.regs[r] = int64(1000*(k+1) + r)
					}
				}
			}
			var an [2]analysis
			for k := range s {
				e.analyze(s[k], &an[k])
			}
			if an[0].enabled != an[1].enabled {
				t.Fatalf("%s: enabled %b vs %b", label, an[0].enabled, an[1].enabled)
			}
			for _, bit := range []int{0, MaxThreads} {
				if an[0].enabled&(1<<uint(bit)) == 0 {
					continue
				}
				if an[0].fps[bit] != an[1].fps[bit] ||
					!slices.Equal(an[0].reads(bit), an[1].reads(bit)) ||
					!slices.Equal(an[0].writes(bit), an[1].writes(bit)) {
					t.Fatalf("%s: footprints of transition %d differ", label, bit)
				}
			}
			if an[0].enabled&stepBit(0) == 0 {
				t.Fatalf("%s: instruction not enabled", label)
			}
			var errs [2]string
			for k := range s {
				if err := e.applyStep(s[k], 0); err != nil {
					errs[k] = err.Error()
				}
			}
			if errs[0] != "" || errs[1] != "" {
				t.Fatalf("%s: step failed: %q / %q", label, errs[0], errs[1])
			}
			// Put back the poison f's frame still holds where the step did
			// not write; what remains must be identical.
			if fr := s[0].threads[0].frames; len(fr) > 1 && fr[1].fn.Name == "f" {
				for r := range fr[1].regs {
					// A Call's destination is written by the callee's Ret,
					// not by the Call.
					written := ir.Reg(r) == in.Def() && in.Kind != ir.Call
					if !slices.Contains(uses, ir.Reg(r)) && !written {
						s[1].threads[0].frames[1].regs[r] = fr[1].regs[r]
					}
				}
			}
			if a, b := e.encode(s[0], nil), e.encode(s[1], nil); string(a) != string(b) {
				t.Errorf("%s: states differ after the step: it read a register outside Uses() %v", label, uses)
			}
		}
	}
	for k := ir.Const; !strings.HasPrefix(k.String(), "kind("); k++ {
		if !covered[k] {
			t.Errorf("no case covers %s", k)
		}
	}
}

// TestEveryFrameStaysKilled runs a program along one schedule and checks
// after every step that each frame of each thread holds zero in all its
// dead registers: the caller a Call suspends (its argument r0 dies at the
// Call), the frame a Spawn starts (its second parameter is never read) and
// the caller whose dead destination a Ret writes.
func TestEveryFrameStaysKilled(t *testing.T) {
	p := ir.MustParse(`
program killed
global g 1
main main

func main params=0 regs=4 {
entry:
  r0 = const 4
  r1 = spawn worker(r0, r0)
  r2 = call f(r0)
  r3 = call f(r2)
  join r1
  ret
}

func f params=1 regs=2 {
entry:
  r1 = add r0, r0
  ret r1
}

func worker params=2 regs=2 {
entry:
  store g, r0
  ret
}
`)
	for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
		e, s, err := newEngine(p, nil, Config{Mode: mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var an analysis
		for steps := 0; !s.terminal(); steps++ {
			e.analyze(s, &an)
			bit := 0
			for an.enabled&(1<<uint(bit)) == 0 {
				bit++
			}
			if bit < MaxThreads {
				if err := e.applyStep(s, bit); err != nil {
					t.Fatal(err)
				}
			} else {
				applyDrain(s, bit-MaxThreads)
			}
			for tid := range s.threads {
				for _, f := range s.threads[tid].frames {
					for _, r := range f.fn.dead[f.blk.ID()][f.idx] {
						if f.regs[r] != 0 {
							t.Fatalf("%s step %d: thread %d frame %s at %s:%d holds %d in dead r%d",
								mode, steps, tid, f.fn.Name, f.blk.Name, f.idx, f.regs[r], r)
						}
					}
				}
			}
		}
	}
}

// TestDeadRegistersMerge checks that states differing only in a dead
// register are explored once. In both programs t0 loads x, whose value
// depends on whether t1's store landed first, into r0, and then performs
// a visible load, where the interleavings meet again. In the first
// program r0 is never read again; in the second, a print (which changes no
// outcome) keeps it live past that load. The programs have the same shape
// and the same outcomes, so the first must visit fewer states.
func TestDeadRegistersMerge(t *testing.T) {
	const src = `
program merge
global x 1
global y 1

func t0 params=0 regs=3 {
entry:
  r0 = load x
  r1 = load y
  r2 = const 7
  print %s
  ret
}

func t1 params=0 regs=1 {
entry:
  r0 = const 1
  store x, r0
  ret
}
`
	dead, live := ir.MustParse(fmt.Sprintf(src, "r2")), ir.MustParse(fmt.Sprintf(src, "r0"))
	threads := []string{"t0", "t1"}
	for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
		legacy, err := tso.Explore(dead, threads, tso.ExploreConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var visited [2]int64
		for k, p := range []*ir.Program{dead, live} {
			res, err := Explore(p, threads, Config{Mode: mode, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameKeys(t, fmt.Sprintf("%s/%s vs legacy", p.Name, mode), keySet(res.Outcomes), keySet(legacy.Outcomes))
			visited[k] = res.Visited
		}
		if visited[0] >= visited[1] {
			t.Errorf("%s: dead temporary visited %d states, live one %d: no states merged", mode, visited[0], visited[1])
		}
		t.Logf("%s: %d states with the temporary dead, %d with it live", mode, visited[0], visited[1])
	}
}

// TestLiveRegistersSurvive is the soundness side: a register live across
// a Call, and one live across a loop's back edge, keep their values. t0
// reads x twice around a call and a loop and publishes both reads and the
// loop count afterwards; zeroing either read early would lose the
// outcomes in which it saw t1's store.
func TestLiveRegistersSurvive(t *testing.T) {
	p := ir.MustParse(`
program survive
global x 1
global a 1
global b 1
global n 1

func t0 params=0 regs=6 {
entry:
  r0 = load x
  r1 = call work(r0)
  r2 = load x
  r3 = const 0
  jmp head
head:
  r4 = const 3
  r4 = lt r3, r4
  br r4, body, done
body:
  r5 = call work(r3)
  r5 = const 1
  r3 = add r3, r5
  jmp head
done:
  store a, r0
  store b, r2
  store n, r3
  ret
}

func work params=1 regs=2 {
entry:
  r1 = const 2
  r1 = mul r0, r1
  ret r1
}

func t1 params=0 regs=1 {
entry:
  r0 = const 1
  store x, r0
  ret
}
`)
	for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
		for _, workers := range []int{1, 2} {
			res, err := Explore(p, []string{"t0", "t1"}, Config{Mode: mode, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			// Coherence orders the two reads: (a, b) is (0,0), (0,1) or (1,1).
			want := []string{"[1 0 0 3]", "[1 0 1 3]", "[1 1 1 3]"}
			sameKeys(t, fmt.Sprintf("%s/workers=%d", mode, workers), keySet(res.Outcomes), want)
		}
	}
}
