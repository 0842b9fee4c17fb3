package fenceplace_test

// Cancellation semantics of the ctx-aware API: a cancelled certification
// must abandon its exploration promptly, return the context's error, and
// leave no entry behind in the persistent baseline store.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fenceplace"

	"fenceplace/internal/progs"
	"fenceplace/internal/store"
)

// TestCertifyCtxCancelPromptly is the acceptance check for cancellation:
// certifying a large kernel (msqueue at threads=3/size=6 explores about
// 130k SC states) and cancelling at the SC exploration's first heartbeat
// must return context.Canceled within 100ms and must not write a baseline
// entry to the store.
func TestCertifyCtxCancelPromptly(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	dir := t.TempDir()

	m := progs.ByName("msqueue")
	pp := m.Defaults
	pp.Threads = 3
	pp.Size = 6
	res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	started := make(chan struct{})
	var once sync.Once
	go func() {
		_, err := fenceplace.CertifyCtx(ctx, res, nil,
			fenceplace.WithCacheDir(dir), fenceplace.WithMaxStates(1<<26),
			fenceplace.WithProgressInterval(time.Millisecond),
			fenceplace.WithProgress(func(ev fenceplace.ProgressEvent) {
				if ev.Kind == fenceplace.ProgressExplore && ev.Mode == "SC" && !ev.Final {
					once.Do(func() { close(started) })
				}
			}))
		errCh <- err
	}()

	// Let the SC exploration get going, then pull the plug.
	select {
	case <-started:
	case err := <-errCh:
		t.Fatalf("certification returned %v before its first heartbeat", err)
	case <-time.After(10 * time.Second):
		t.Fatal("certification never started exploring")
	}
	cancel()
	cancelled := time.Now()

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled certification returned %v, want context.Canceled", err)
		}
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Errorf("certification took %v to honor the cancellation, want <= 100ms", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled certification never returned")
	}

	// No partial entry may survive in the baseline store: the write-back is
	// skipped outright once the context is done.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("cancelled certification left %d store entries, want 0", len(entries))
	}

	// The session must not have memoized the cancellation: a retry with a
	// live context explores afresh and succeeds.
	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, fenceplace.WithCacheDir(dir))
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if !rep.Equivalent {
		t.Fatalf("retry after cancellation: not SC-equivalent: %s", rep)
	}
	if entries, err := st.List(); err != nil || len(entries) != 2 {
		t.Errorf("successful retry wrote %d store entries (err %v), want 2 (SC + TSO)", len(entries), err)
	}
}

// TestAnalyzeCtxCancelled pins the analysis side: a dead context stops the
// pipeline before it triggers pass work.
func TestAnalyzeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := progs.ByName("dekker")
	if _, err := fenceplace.AnalyzeCtx(ctx, m.Default(), fenceplace.Control); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeCtx with a dead context returned %v, want context.Canceled", err)
	}
	az := fenceplace.NewAnalyzer(m.Default())
	if _, err := az.AnalyzeAllCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeAllCtx with a dead context returned %v, want context.Canceled", err)
	}
}
