package fenceplace

import (
	"os"
	"time"

	"fenceplace/internal/fsx"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/store"
)

// Option is the one configuration vocabulary of the public API: the same
// option set parameterizes analyzer construction (NewAnalyzer) and
// certification (CertifyCtx, CertifyProgramCtx). Options irrelevant to a call
// are simply ignored by it — WithTiming has no effect on a certification,
// WithMaxStates none on static analysis — so one resolved option list can
// drive a whole pipeline.
type Option func(*config)

// config is the resolved form of an option list. The zero value selects
// every default; resolve applies the options and pins environment-derived
// defaults (the cache directory) once, so a configuration cannot drift
// mid-run when the environment changes.
type config struct {
	workers int  // bounded fan-out: per-function passes and exploration workers
	timing  bool // Results carry per-pass wall times

	maxStates int64 // model-checker state budget per exploration
	memoryCap int   // model-checker arena limit in words

	cacheDir    string // persistent baseline store directory ("" = none)
	cacheDirSet bool   // WithCacheDir was given; skip the env default

	progress      func(ProgressEvent) // streaming progress sink (nil = none)
	progressEvery time.Duration       // heartbeat interval (0 = default 250ms)

	faultFS fsx.FS // filesystem override for cache I/O (nil = the OS)
}

// resolve folds an option list into a configuration. The baseline-store
// default is resolved here, exactly once per configuration: when no
// WithCacheDir option is present, $FENCEPLACE_CACHE_DIR is read at this
// point and the value is carried in the config from then on. A mid-run
// change to the environment therefore cannot split one run across two
// stores — every consumer of the resolved config sees the same directory.
func resolve(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if !c.cacheDirSet {
		// Marking the directory as set makes the resolution sticky: a
		// resolved config re-applied later (Resolved's pinning) keeps this
		// value instead of consulting the environment again.
		c.cacheDir, c.cacheDirSet = os.Getenv("FENCEPLACE_CACHE_DIR"), true
	}
	return c
}

// mcConfig maps the exploration-shaping knobs onto a model-checker
// configuration (the single source of this mapping).
func (c config) mcConfig() mc.Config {
	return mc.Config{
		MaxStates: c.maxStates,
		Workers:   c.workers,
		MemoryCap: c.memoryCap,
	}
}

// cache maps the cache directory and the disk-I/O knobs onto the pass
// session's exploration cache.
func (c config) cache() passes.Cache {
	return passes.Cache{Dir: c.cacheDir, IO: store.Config{FS: c.faultFS}}
}

// WithWorkers bounds the configured parallelism: the analyzer's
// per-function fan-out and the model checker's exploration workers alike.
// n < 1 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithTiming makes every produced Result carry per-pass wall times, which
// Summary then reports.
func WithTiming() Option {
	return func(c *config) { c.timing = true }
}

// WithCacheDir names the persistent, content-addressed exploration store
// (internal/store) certifications consult before exploring and write back
// after: SC baselines and the TSO outcome sets of instrumented variants.
// The empty string disables persistence explicitly — unlike
// omitting the option, which falls back to $FENCEPLACE_CACHE_DIR (read
// once, when the option list is resolved).
func WithCacheDir(dir string) Option {
	return func(c *config) { c.cacheDir, c.cacheDirSet = dir, true }
}

// WithMaxStates bounds each model-checker exploration to n states; an
// exceeded budget surfaces as an error wrapping ErrTruncated, never as a
// verdict. n <= 0 means the checker's default (2M states).
func WithMaxStates(n int64) Option {
	return func(c *config) { c.maxStates = n }
}

// WithMemoryCap sets the model checker's per-state arena limit in words
// (default 1<<22): an Alloca or Malloc that would grow a state's memory
// past it fails the certification with "arena exhausted". The cap decides
// where allocations fail, so it is part of the exploration cache key. It
// does not bound the seen set; WithMaxStates does. n < 0 removes the cap.
func WithMemoryCap(n int) Option {
	return func(c *config) { c.memoryCap = n }
}

// WithSpillDir returns an option that does nothing.
//
// Deprecated: ignored. The seen set no longer spills to disk. The name
// remains only because the benchmark harness (bench/workloads.go,
// bench/service.go) still calls it; the ROADMAP benchmark item removes
// those calls and then this function.
func WithSpillDir(string) Option {
	return func(*config) {}
}

// WithFaultFS routes every disk operation of the certification pipeline —
// the exploration cache — through fs instead of the real filesystem. It
// is the fault-injection seam of the chaos test suite (see
// internal/fsx.NewFaultFS); nil restores the OS. The filesystem cannot
// affect certification verdicts, only whether the pipeline runs cached or
// degraded.
func WithFaultFS(fs fsx.FS) Option {
	return func(c *config) { c.faultFS = fs }
}

// Resolved returns an option list equivalent to opts with every
// environment-derived default pinned: applying the result any number of
// times, at any later point, yields exactly the configuration opts
// resolves to now. Multi-program drivers (the corpus runner) resolve once
// up front so a mid-run environment change cannot split one run across two
// baseline stores.
func Resolved(opts ...Option) []Option {
	c := resolve(opts)
	return []Option{func(o *config) { *o = c }}
}
