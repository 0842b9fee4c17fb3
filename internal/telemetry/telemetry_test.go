package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestCounterAdd checks that Add and Inc accumulate into one value.
func TestCounterAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	c.Add(5)
	c.Inc()
	c.Add(3)
	if got := c.Value(); got != 9 {
		t.Fatalf("Value = %d, want 9", got)
	}
}

// TestGaugeSetAdd checks the gauge contract: Set overwrites, Add adjusts
// the last value.
func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.gauge")
	g.Set(10)
	g.Set(7) // overwrites
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

// TestHistogramBuckets pins the power-of-two bucketing: zero and negatives
// in bucket 0, v in bucket bits.Len64(v), overflow absorbed by the last
// bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist")
	for _, v := range []int64{-3, 0, 1, 2, 3, 4, 1 << 40, 1 << 62} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("Count = %d, want 8", s.Count)
	}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 31: 2} // 1<<40 and 1<<62 share the cap bucket
	for b, n := range want {
		if b >= len(s.Buckets) || s.Buckets[b] != n {
			t.Errorf("bucket %d = %v, want %d (buckets %v)", b, at(s.Buckets, b), n, s.Buckets)
		}
	}
}

func at(b []int64, i int) int64 {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// TestRegisterOnce checks idempotent registration and the kind-clash
// panic.
func TestRegisterOnce(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("dup")
	c2 := r.Counter("dup")
	if c1 != c2 {
		t.Fatal("re-registering a counter returned a distinct instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing counter name as a gauge did not panic")
		}
	}()
	r.Gauge("dup")
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// registration and writes interleaved — and checks the final sums. Run
// under -race this is the registry's data-race certification.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc.counter")
			gg := r.Gauge("conc.gauge")
			h := r.Histogram("conc.hist")
			for i := 0; i < perG; i++ {
				c.Inc()
				gg.Add(1)
				h.Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot() // aggregation races the writers by design
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["conc.counter"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauges["conc.gauge"]; got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := s.Histograms["conc.hist"].Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHotPathAllocationFree asserts the zero-allocation contract of the
// write paths.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc.counter")
	g := r.Gauge("alloc.gauge")
	h := r.Histogram("alloc.hist")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		g.Set(42)
		g.Add(1)
		h.Observe(42)
	}); n != 0 {
		t.Errorf("metric writes allocated %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		Emit(Span{Name: "noop"})
	}); n != 0 {
		t.Errorf("disabled Emit allocated %.1f times per run, want 0", n)
	}
}

// TestSnapshotJSON round-trips a snapshot through encoding/json — the
// plain-data contract the -metrics dumps and expvar export rely on.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(7)
	r.Gauge("b.gauge").Set(-2)
	r.Histogram("c.hist").Observe(9)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.count"] != 7 || back.Gauges["b.gauge"] != -2 || back.Histograms["c.hist"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestNames checks the catalogue listing is sorted and complete.
func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Histogram("z.h")
	r.Counter("m.c")
	r.Gauge("a.g")
	got := r.Names()
	want := []string{"a.g", "m.c", "z.h"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}
