// Package cli holds the flags and process lifecycle the commands share,
// so fenceplace certify, paperbench and fenced cannot drift apart in how
// a flag is named, documented or resolved, which signals they honor, or
// how a run ends. Each shared flag is registered here and nowhere else.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fenceplace"
	"fenceplace/internal/buildinfo"
	"fenceplace/internal/telemetry"
)

// Flag groups a command registers beside -version (see Register).
const (
	Store = 1 << iota // -cache-dir
	Run               // -deadline, -trace, -metrics, -pprof
)

// Flags holds the values of the shared flags after parsing.
type Flags struct {
	version      bool
	cacheDir     string
	deadline     time.Duration
	trace, pprof string
	metrics      bool
}

// Register adds -version and the given flag groups to fs.
func Register(fs *flag.FlagSet, groups int) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.version, "version", false, "print the build identity and exit")
	if groups&Store != 0 {
		fs.StringVar(&f.cacheDir, "cache-dir", "", "persistent exploration store for SC baselines and TSO outcome sets (default $FENCEPLACE_CACHE_DIR; empty = no persistence)")
	}
	if groups&Run != 0 {
		fs.DurationVar(&f.deadline, "deadline", 0, "wall-clock budget for the whole run; exceeding it aborts with the inconclusive exit code 2 (0 = none)")
		fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event file (Perfetto-openable) of the run")
		fs.BoolVar(&f.metrics, "metrics", false, "dump the final telemetry snapshot (JSON) to stderr on exit")
		fs.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof and expvar on this address for the run's duration")
	}
	return f
}

// Parse parses args into fs. It reports false when -version was given:
// the build identity is then printed and the command should exit 0.
func (f *Flags) Parse(fs *flag.FlagSet, args []string) bool {
	fs.Parse(args) // fs exits on error (flag.ExitOnError)
	if f.version {
		fmt.Println(buildinfo.String())
		return false
	}
	return true
}

// CacheDir resolves an exploration store directory: flagValue, else
// $FENCEPLACE_CACHE_DIR.
func CacheDir(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	return os.Getenv("FENCEPLACE_CACHE_DIR")
}

// CacheDir is the resolved -cache-dir.
func (f *Flags) CacheDir() string { return CacheDir(f.cacheDir) }

// StoreOptions pins the resolved -cache-dir into analyzer options.
func (f *Flags) StoreOptions() []fenceplace.Option {
	return []fenceplace.Option{fenceplace.WithCacheDir(f.CacheDir())}
}

// Start begins a run: the returned context is cancelled by SIGINT or
// SIGTERM and by -deadline, and -trace, -pprof and -metrics are mounted.
// The caller must call finish before the process exits — os.Exit skips
// defers, and the trace file is only valid JSON once finish has closed
// it — so commands return their exit code from a function that defers
// finish, and only main calls os.Exit.
func (f *Flags) Start() (ctx context.Context, finish func(), err error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancel := context.CancelFunc(func() {})
	if f.deadline > 0 {
		// The deadline bounds wall-clock, not states: a stuck disk or an
		// oversized exploration ends in the inconclusive exit code instead
		// of a hang. Cancellation wins against I/O retries within ~100ms.
		ctx, cancel = context.WithTimeout(ctx, f.deadline)
	}
	var metricsW io.Writer
	if f.metrics {
		metricsW = os.Stderr
	}
	cleanup, err := telemetry.Mount(telemetry.MountConfig{
		TracePath: f.trace, PprofAddr: f.pprof, Metrics: metricsW,
	})
	if err != nil {
		cancel()
		stop()
		return nil, nil, err
	}
	return ctx, func() {
		if err := cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
		}
		cancel()
		stop()
	}, nil
}

// FailCode reports err on stderr and maps it to an exit status: a blown
// -deadline is the inconclusive code 2 (no verdict, like an exhausted
// state budget), anything else is code.
func FailCode(err error, code int) int {
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "inconclusive: -deadline exceeded before the run finished")
		return 2
	}
	return code
}
