package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark runs on shared machines whose
// speed drifts with their neighbours' load: on a 2-vCPU cloud VM a fixed
// evaluation pass took 43 ms in quiet minutes and 110 ms in busy ones,
// with CPU time tracking wall time, so the slowdown is contention for
// shared caches and memory, not descheduling. Timings are therefore
// divided by the host's current slowdown, measured by three fixed kernels
// that use only the standard library: random access over a table larger
// than a core's private caches, hashing, and sorting. Every core runs the
// kernels at once, because the workloads keep every core busy and a
// neighbour slows each core on its own. The slowdown is the geometric mean
// over cores and kernels of the kernel's time over its reference time.
//
// On that VM, in a busy hour, six 20-second runs per workload spread by
// 15% to 25% (quartile spread over median); divided by the slowdown
// measured on one core, by 5% to 14%; measured on both cores, by 3% to 10%.
//
// The kernels allocate nothing, and every calibration point starts with a
// garbage collection, so the workload's heap and an unfinished collection
// do not slow them: a change that adds allocation to the pipeline cannot
// raise the slowdown and hide its own cost.

// calTable is the random-access kernel's table, only read: 8 MiB, well
// beyond the VM's 2 MiB private cache per core. A 2 MiB table sat at that
// boundary: where its pages landed decided whether it fit, and the
// kernel's time differed by a third from one process to the next.
var calTable = func() []uint64 {
	t := make([]uint64, 1<<20)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}()

// calSort holds each core's sorting array, refilled before each sort.
var calSort = func() [][]uint64 {
	a := make([][]uint64, runtime.GOMAXPROCS(0))
	for i := range a {
		a[i] = make([]uint64, 1<<15)
	}
	return a
}()

// calSink keeps the kernels' results alive.
var calSink uint64

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// calKernels are the calibration kernels with their reference times,
// round numbers near their times on a quiet 2-vCPU Xeon VM. The
// references only fix the scale of calibrated values; any fixed choice
// compares runs equally. A kernel runs on core slot c and returns a value
// that keeps its work alive.
var calKernels = []struct {
	ref time.Duration
	run func(c int) uint64
}{
	{750 * time.Microsecond, func(c int) uint64 { // random access
		x, sum := uint64(c+1), uint64(0)
		for i := 0; i < 1<<18; i++ {
			x = lcg(x)
			sum += calTable[x>>44]
		}
		return sum
	}},
	{2 * time.Millisecond, func(int) uint64 { // hashing
		var buf [1 << 16]byte
		for i := 0; i < 48; i++ {
			h := sha256.Sum256(buf[:])
			buf[i] = h[0]
		}
		return uint64(buf[0])
	}},
	{2100 * time.Microsecond, func(c int) uint64 { // sorting
		a := calSort[c]
		x := uint64(5)
		for i := range a {
			x = lcg(x)
			a[i] = x
		}
		slices.Sort(a)
		return a[0]
	}},
}

// calRounds is how many times a calibration point runs each kernel; it
// takes the median, so one preempted run does not skew the point.
const calRounds = 3

// slowdown measures how much slower than the reference times the host
// runs right now. It collects garbage first, so it must be called only
// between timed intervals.
func slowdown() float64 {
	runtime.GC()
	cores := len(calSort)
	logs := make([]float64, cores)
	sinks := make([]uint64, cores)
	var wg sync.WaitGroup
	wg.Add(cores)
	for c := 0; c < cores; c++ {
		go func(c int) {
			defer wg.Done()
			for _, k := range calKernels {
				times := make([]float64, calRounds)
				for r := range times {
					start := time.Now()
					sinks[c] += k.run(c)
					times[r] = float64(time.Since(start))
				}
				logs[c] += math.Log(median(times) / float64(k.ref))
			}
		}(c)
	}
	wg.Wait()
	var logSum float64
	for c := range logs {
		logSum += logs[c]
		calSink += sinks[c]
	}
	return math.Exp(logSum / float64(cores*len(calKernels)))
}
