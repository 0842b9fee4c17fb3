// Package par holds the one worker-pool shape the analysis layers share:
// an index fan-out with a bounded number of goroutines pulling from an
// atomic counter. The pass session fans functions out with it and the
// corpus runner fans corpus programs; keeping the pool in one place
// keeps their semantics (capping, serial fallback, panic capture)
// identical.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the first panic captured from a pool goroutine, re-raised
// on the caller's goroutine by ForEach. Without the capture a panic in a
// pool goroutine would kill the process outright (no caller frame to
// recover in); with it, the caller's own recover sees the original value
// and stack and can turn the panic into a structured job error.
type PanicError struct {
	Value any    // the original panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("par: worker panic: %v", e.Value) }

// ForEach runs work(i) for every i in [0, n), fanned out over at most
// workers goroutines (capped at n; workers <= 1 runs inline). work must
// be safe to call concurrently for distinct indexes.
//
// A panic in work stops the fan-out: remaining indexes are abandoned,
// every goroutine is joined, and the first captured panic is re-raised on
// the caller's goroutine as a *PanicError. The inline path panics
// directly — the caller's frame is live, so no capture is needed.
func ForEach(n, workers int, work func(i int)) {
	w := workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		once    sync.Once
		first   *PanicError
		aborted atomic.Bool
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() {
						first = &PanicError{Value: r, Stack: debug.Stack()}
						aborted.Store(true)
					})
				}
			}()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
