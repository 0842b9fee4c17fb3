// Command benchjson converts `go test -bench` output into a JSON record,
// so CI can persist benchmark results (states/s, allocs/op, wall time) as
// an artifact and the performance trajectory of the model checker is
// machine-readable across commits:
//
//	go test -run '^$' -bench 'Certify' -benchtime=1x -benchmem . | benchjson -out BENCH_mc.json
//
// Without -out the JSON goes to stdout. The non-benchmark lines of the
// input (goos/goarch/pkg/cpu headers) are captured into the envelope;
// everything else is passed through untouched to stderr so test failures
// stay visible in CI logs.
//
// -metrics FILE folds a telemetry snapshot (the JSON the bench run dumps
// via FENCEPLACE_BENCH_METRICS, or a CLI's -metrics output) into the
// envelope verbatim, so the benchmark record carries the run's counters
// (states visited, seen-table probes, store hits) next to its timings.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"fenceplace/internal/cli"
)

// Result is one benchmark line: its name, iteration count, and every
// reported metric keyed by unit (ns/op, states/s, B/op, allocs/op, ...).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the JSON envelope: the run's environment headers, the commit
// and UTC timestamp the record belongs to (so the perf trajectory is
// attributable across commits), plus every parsed benchmark line, in input
// order.
type Report struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Time       string   `json:"time,omitempty"` // RFC 3339, UTC
	Benchmarks []Result `json:"benchmarks"`

	// Metrics is the run's telemetry snapshot (-metrics FILE), embedded
	// verbatim: the file is already JSON, so it is carried as-is rather
	// than re-marshalled through an intermediate struct.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// resolveCommit picks the commit stamped into the envelope: an explicit
// -commit value, then the CI environment (GITHUB_SHA, GIT_COMMIT), then
// the working tree's HEAD; empty when none is available (the field is then
// omitted rather than guessed).
func resolveCommit(explicit string, getenv func(string) string, gitHead func() (string, error)) string {
	if explicit != "" {
		return explicit
	}
	for _, key := range []string{"GITHUB_SHA", "GIT_COMMIT"} {
		if v := getenv(key); v != "" {
			return v
		}
	}
	head, err := gitHead()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(head)
}

func gitHead() (string, error) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	return string(out), err
}

// parseLine parses one `go test -bench` output line, reporting ok=false
// for lines that are not benchmark results.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs: at least 4 fields.
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// parse consumes bench output, splitting benchmark lines into the report
// and echoing every other line to passthrough.
func parse(in io.Reader, passthrough io.Writer) (*Report, error) {
	rep := &Report{Benchmarks: []Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	headers := map[string]*string{
		"goos": &rep.GoOS, "goarch": &rep.GoArch, "pkg": &rep.Pkg, "cpu": &rep.CPU,
	}
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
			continue
		}
		consumed := false
		for prefix, dst := range headers {
			if v, ok := strings.CutPrefix(line, prefix+": "); ok && *dst == "" {
				*dst = strings.TrimSpace(v)
				consumed = true
				break
			}
		}
		if !consumed {
			fmt.Fprintln(passthrough, line)
		}
	}
	return rep, sc.Err()
}

// loadMetrics reads and validates a telemetry snapshot file for embedding.
func loadMetrics(path string) (json.RawMessage, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	raw = []byte(strings.TrimSpace(string(raw)))
	if !json.Valid(raw) {
		return nil, fmt.Errorf("%s: not valid JSON", path)
	}
	return raw, nil
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	commit := flag.String("commit", "", "commit to stamp the record with (default $GITHUB_SHA, $GIT_COMMIT, then git rev-parse HEAD)")
	metrics := flag.String("metrics", "", "telemetry snapshot JSON file to embed in the record")
	if !cli.Register(flag.CommandLine, 0).Parse(flag.CommandLine, os.Args[1:]) {
		return
	}

	rep, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *metrics != "" {
		if rep.Metrics, err = loadMetrics(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	rep.Commit = resolveCommit(*commit, os.Getenv, gitHead)
	rep.Time = time.Now().UTC().Format(time.RFC3339)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
