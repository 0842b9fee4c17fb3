package mc

// Test-only entry points into the engine for the tests of package mc_test,
// which need the fence-placement pipeline (internal/passes) and the litmus
// suite (internal/litmus); both import this package.

import (
	"fmt"
	"math/bits"
	"math/rand"

	"fenceplace/internal/ir"
)

// recomputed returns s's fingerprint computed from scratch.
func (e *engine) recomputed(s *state) h128 {
	c := s.clone()
	e.components(c, nil)
	return fingerprint(c)
}

// FingerprintWalk walks paths seeded random paths from the normal form of
// p's initial state, each at most depth transitions long, firing every
// transition as exploration does. After every transition, normalize
// included, the fingerprint the state carries must equal the one
// recomputed from scratch. It returns the number of transitions checked.
func FingerprintWalk(p *ir.Program, threadFns []string, cfg Config, seed int64, paths, depth int) (int, error) {
	e, init, err := newEngine(p, threadFns, cfg)
	if err != nil {
		return 0, err
	}
	w := &workerCtx{}
	if _, _, ok := e.normalize(w, init, 0, 0); !ok {
		return 0, fmt.Errorf("root: %v", e.err)
	}
	w.encBuf = e.components(init, w.encBuf)
	rng := rand.New(rand.NewSource(seed))
	fired := 0
	s, child := &state{}, &state{}
	for path := 0; path < paths; path++ {
		cloneInto(s, init)
		for d := 0; d < depth; d++ {
			e.analyze(s, &w.an)
			if w.an.enabled == 0 {
				break
			}
			bit := randomBit(rng, w.an.enabled)
			if _, ok := e.fire(w, &w.an, s, child, bit, 0); !ok {
				return fired, fmt.Errorf("path %d, transition %d (bit %d): %v", path, d, bit, e.err)
			}
			fired++
			if got, want := fingerprint(child), e.recomputed(child); got != want {
				return fired, fmt.Errorf("path %d, transition %d (bit %d): carried fingerprint %016x%016x, recomputed %016x%016x",
					path, d, bit, got.hi, got.lo, want.hi, want.lo)
			}
			s, child = child, s
		}
	}
	return fired, nil
}

// randomBit picks one set bit of mask uniformly.
func randomBit(rng *rand.Rand, mask uint32) int {
	for k := rng.Intn(bits.OnesCount32(mask)); k > 0; k-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros32(mask)
}

// DetStepAgreement explores p's states depth first, stored states in
// normal form under an exact seen set, until maxStates are stored or none
// is left. On every state it passes through — each stored state and each
// state inside a chain normalize merges — it checks, for every thread
// whose step is enabled, that detStep agrees with the footprint rule it
// replaces: stepFP reports the step local, and it is neither a load nor a
// retreating branch. It returns the number of states checked.
func DetStepAgreement(p *ir.Program, threadFns []string, cfg Config, maxStates int) (int, error) {
	e, init, err := newEngine(p, threadFns, cfg)
	if err != nil {
		return 0, err
	}
	checked := 0
	var scratch analysis
	check := func(s *state) error {
		checked++
		for tid := range s.Threads {
			if !stepEnabled(s, tid) {
				continue
			}
			t := &s.Threads[tid]
			f := t.Top()
			in := f.Blk.Instrs[f.Idx]
			scratch.addrs = scratch.addrs[:0]
			want := e.stepFP(&scratch, s, tid, in).local
			switch in.Kind {
			case ir.Load, ir.LoadPtr:
				want = false
			case ir.Br, ir.Jmp:
				want = want && !e.retreat[f.Fn.ID][f.Blk.ID()]
			}
			if got := e.detStep(t); got != want {
				return fmt.Errorf("thread %d at %s (%s block %d, %d buffered): detStep %v, footprint rule %v",
					tid, in, f.Fn.Name, f.Blk.ID(), len(t.Buf), got, want)
			}
		}
		return nil
	}
	// settle checks s, then fires its det steps one at a time as normalize
	// does, checking every state on the way.
	settle := func(s *state) error {
		for {
			if err := check(s); err != nil {
				return err
			}
			tid := e.detThread(s, 0)
			if tid < 0 {
				return nil
			}
			if err := e.step(s, tid); err != nil {
				return err
			}
		}
	}
	seen := make(map[string]bool)
	key := func(s *state) string { return string(appendWordBytes(nil, e.encode(s, nil))) }
	if err := settle(init); err != nil {
		return checked, err
	}
	seen[key(init)] = true
	stack := []*state{init}
	var an analysis
	for len(stack) > 0 && len(seen) < maxStates {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.analyze(s, &an)
		for todo := an.enabled; todo != 0; todo &= todo - 1 {
			bit := bits.TrailingZeros32(todo)
			c := s.clone()
			if bit < MaxThreads {
				if err := e.step(c, bit); err != nil {
					return checked, err
				}
			} else {
				c.Drain(bit - MaxThreads)
			}
			if err := settle(c); err != nil {
				return checked, err
			}
			if k := key(c); !seen[k] {
				seen[k] = true
				stack = append(stack, c)
			}
		}
	}
	return checked, nil
}

// StripNoOpFences returns a copy of p without the fences a TSO
// ExplorationKey leaves out (tsoEffective), and how many it removed.
func StripNoOpFences(p *ir.Program) (*ir.Program, int) {
	q, _, _ := p.Clone()
	called := calledFns(q, func(name string) int64 {
		for i, f := range q.Funcs {
			if f.Name == name {
				return int64(i)
			}
		}
		return -1
	})
	removed := 0
	for i, f := range q.Funcs {
		in := bufAtEntry(f, !called[i], nil)
		for _, blk := range f.Blocks {
			kept := tsoEffective(nil, blk, in)
			removed += len(blk.Instrs) - len(kept)
			blk.Instrs = kept
		}
	}
	q.Finalize()
	return q, removed
}
