package main

import (
	"bytes"
	"math"
	"testing"
)

func sequence(t *testing.T, m *mix, seed uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(m.at(seed, i).body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestMixDeterministic checks that a seed fixes the request sequence byte
// for byte and that another seed reorders it.
func TestMixDeterministic(t *testing.T) {
	m1, err := newMix("..")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := newMix("..")
	if err != nil {
		t.Fatal(err)
	}
	a, b := sequence(t, m1, 7, 2000), sequence(t, m2, 7, 2000)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if bytes.Equal(a, sequence(t, m1, 8, 2000)) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
}

// TestMixShares checks each class's share of the sequence against the
// declared mix, and that every option of a class is dealt equally often.
func TestMixShares(t *testing.T) {
	m, err := newMix("..")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2400
	classOf := map[string]int{}
	for ci, c := range m.classes {
		for _, o := range c.opts {
			classOf[o.key] = ci
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		perClass := make([]int, len(m.classes))
		perOpt := map[string]int{}
		for i := 0; i < n; i++ {
			o := m.at(seed, i)
			perClass[classOf[o.key]]++
			perOpt[o.key]++
		}
		for ci, c := range m.classes {
			got := float64(perClass[ci]) / n
			want := float64(c.share) / mixBlock
			if math.Abs(got-want) > 0.02 {
				t.Errorf("seed %d: class %s has share %.3f, want %.3f ± 0.02", seed, c.name, got, want)
			}
			lo, hi := n, 0
			for _, o := range c.opts {
				lo, hi = min(lo, perOpt[o.key]), max(hi, perOpt[o.key])
			}
			if hi-lo > 1 {
				t.Errorf("seed %d: class %s deals its options %d to %d times", seed, c.name, lo, hi)
			}
		}
	}
}
