// Command fencebench is the repository benchmark. It runs four seeded
// workloads over the fence-placement pipeline, each in a fresh child
// process, checks every output against a golden oracle and prints the
// metrics with their units:
//
//	bash bench/run.sh --workload cert-kernels --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --out-dir runs/   # every workload
//	bash bench/run.sh --workload eval-static --trace 1 --trace-out t.json
//	bash bench/run.sh compare OLD/ NEW/                 # judge two sets of runs
//
// With --trace 0 a run reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it replays the same inputs through each layer's own entry
// point and reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit status is 0 only when every op succeeded and every
// output matched the oracle. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fenceplace/internal/buildinfo"
	"fenceplace/internal/stats"
)

// childEnv marks a process started to run one workload.
const childEnv = "FENCEBENCH_CHILD"

// childTimeout bounds one workload's child process; a run must finish
// within 180 seconds.
const childTimeout = 170 * time.Second

func main() {
	switch {
	case os.Getenv(childEnv) != "":
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	case len(os.Args) > 1 && os.Args[1] == "compare":
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	outDir   string
	root     string
	update   bool
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("fencebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 25, "length of the measured phase in seconds")
	fs.IntVar(&c.trace, "trace", 0, "1 replays the inputs through each layer and reports per-layer metrics")
	fs.StringVar(&c.traceOut, "trace-out", "", "with --trace 1, write the spans as a Chrome trace-event file")
	fs.StringVar(&c.outDir, "out-dir", "", "write each workload's full result document into this directory")
	fs.StringVar(&c.root, "root", ".", "repository root")
	fs.BoolVar(&c.update, "update-golden", false, "record the golden oracle under bench/testdata instead of measuring")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	case c.workload != "all" && workloadByName(c.workload) == nil:
		return nil, fmt.Errorf("unknown workload %q (valid: all, %s)", c.workload, strings.Join(workloadNames(), ", "))
	case c.trace != 0 && c.trace != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1")
	case c.seconds <= 0 || c.seconds > 120:
		return nil, fmt.Errorf("--seconds must be in (0, 120]")
	}
	return c, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the JSON object the last line of standard output carries.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a workload run's full document: the output line plus what a
// later comparison needs to know about the run.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Loop     string  `json:"loop"`
	Clients  int     `json:"clients"`
	line

	// Samples is the number of timed latency samples; TailP and TailMS are
	// the highest percentile with at least ten samples beyond it, when
	// there are enough samples for one, calibrated like latency_ms_p50.
	Samples int        `json:"samples,omitempty"`
	TailP   float64    `json:"tail_p,omitempty"`
	TailMS  float64    `json:"tail_ms,omitempty"`
	SetupS  []float64  `json:"setup_runs_s,omitempty"` // uncalibrated
	Raw     *rawValues `json:"raw,omitempty"`
	Errors  []string   `json:"errors,omitempty"` // the first failures, for diagnosis

	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	Nproc  int    `json:"nproc"`
	Go     string `json:"go"`
}

// rawValues are the calibrated end-to-end metrics before division by the
// host slowdown, and the median slowdown of the measured slices.
type rawValues struct {
	SetupS    float64 `json:"setup_s"`
	LatencyMS float64 `json:"latency_ms_p50"`
	OpsPerS   float64 `json:"ops_per_s"`
	Slowdown  float64 `json:"slowdown"`
}

// get returns the uncalibrated value of the named end-to-end metric, if
// it is a calibrated one.
func (r *rawValues) get(name string) (float64, bool) {
	switch name {
	case "setup_s":
		return r.SetupS, true
	case "latency_ms_p50":
		return r.LatencyMS, true
	case "ops_per_s":
		return r.OpsPerS, true
	}
	return 0, false
}

// maxErrors bounds how many failure messages a result keeps.
const maxErrors = 20

func (r *result) addUnit(u unit) {
	r.Attempted += u.ops
	r.Failed += u.failed
	for _, e := range u.errs {
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, e)
		}
	}
}

// parentMain runs the selected workloads, each in a child process, and
// prints their results.
func parentMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fencebench:", err)
		return 2
	}
	if cfg.update {
		if err := updateGolden(context.Background(), cfg); err != nil {
			fmt.Fprintln(stderr, "fencebench: update-golden:", err)
			return 1
		}
		return 0
	}
	names := workloadNames()
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}
	bi := buildinfo.Read()
	final := line{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := spawn(cfg, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "fencebench: %s: %v\n", name, err)
			return 1
		}
		res.Commit, res.Dirty, res.Nproc, res.Go = bi.Commit, bi.Dirty, runtime.NumCPU(), bi.Go
		printResult(stderr, res)
		if cfg.outDir != "" {
			if err := writeResult(cfg.outDir, res); err != nil {
				fmt.Fprintln(stderr, "fencebench:", err)
				return 1
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "fencebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !final.Correct || final.Failed > 0 {
		return 1
	}
	return 0
}

// spawn runs one workload in a fresh child process of this binary, so
// peak RSS, pools and counters never carry over from another workload,
// and adds the child's peak RSS to an untraced result.
func spawn(cfg *config, name string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"--workload", name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", fmt.Sprint(cfg.trace), "--root", cfg.root,
	}
	if out := cfg.traceOut; out != "" {
		if cfg.workload == "all" { // one trace file per workload
			ext := filepath.Ext(out)
			out = strings.TrimSuffix(out, ext) + "-" + name + ext
		}
		args = append(args, "--trace-out", out)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run() // a non-zero exit still leaves the result to read
	if ctx.Err() != nil {
		return nil, fmt.Errorf("child killed after %s", childTimeout)
	}
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child printed no result (%v)", errors.Join(runErr, err))
	}
	if cfg.trace == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child")
		}
		res.Metrics["peak_rss_mb"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: unitOf("peak_rss_mb")} // Maxrss is in KiB
	}
	return &res, nil
}

// printResult writes a human-readable summary of one result.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n%s (seed %d, %s): %d ops, %d failed, correct=%v\n",
		r.Workload, r.Seed, r.Loop, r.Attempted, r.Failed, r.Correct)
	t := stats.NewTable("metric", "value", "unit")
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		t.Add(name, fmt.Sprintf("%.6g", m.Value), m.Unit)
	}
	fmt.Fprint(w, t.String())
	if r.Samples > 0 {
		fmt.Fprintf(w, "latency: p50 %.4g ms", r.Metrics["latency_ms_p50"].Value)
		if r.TailP > 0 {
			fmt.Fprintf(w, ", p%g %.4g ms", r.TailP, r.TailMS)
		}
		fmt.Fprintf(w, " (n=%d)\n", r.Samples)
	}
	if r.Raw != nil {
		fmt.Fprintf(w, "uncalibrated: setup %.4g s, latency p50 %.4g ms, %.4g ops/s; host slowdown %.3f\n",
			r.Raw.SetupS, r.Raw.LatencyMS, r.Raw.OpsPerS, r.Raw.Slowdown)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  failed:", e)
	}
}

// writeResult stores a result document as <workload>-s<seed>[-trace].json.
func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d", r.Workload, r.Seed)
	if r.Trace == 1 {
		name += "-trace"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// childMain runs one workload in this process and prints its result
// document as one JSON line.
func childMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil || cfg.workload == "all" {
		fmt.Fprintln(stderr, "fencebench child: bad arguments:", err)
		return 2
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "fencebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fencebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// runWorkload sets up the environment and runs the configured workload,
// untraced or traced.
func runWorkload(cfg *config) (*result, error) {
	w := workloadByName(cfg.workload)
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "fencebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{root: cfg.root, seed: cfg.seed, tmp: tmp, golden: g}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-5*time.Second)
	defer cancel()
	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Loop: w.loop,
		line: line{Metrics: map[string]metric{}},
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace == 1 {
		err = measureTraced(ctx, w, e, dur, cfg.traceOut, res)
	} else {
		err = measureEndToEnd(ctx, w, e, dur, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}
