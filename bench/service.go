package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/mc"
	"fenceplace/internal/service"
)

// Service job budgets at the manager's defaults: the state ceiling and
// the memory-cap ceiling every job is clamped to.
const (
	serviceMaxStates = 1 << 21
	serviceMemoryCap = 1 << 22
)

// serviceMixed runs fenced in process: the job manager and its HTTP
// handler behind an httptest server, driven by nproc closed-loop clients.
type serviceMixed struct {
	e      *env
	mix    *mix
	cache  string
	mgr    *service.Manager
	ts     *httptest.Server
	client *http.Client
	n      int
	next   atomic.Int64 // index of the next request in the seed's sequence

	mu    sync.Mutex
	calls []serviceCall // one per finished HTTP request
}

// serviceCall is what one HTTP request measured.
type serviceCall struct {
	client    time.Duration // POST to fully read response
	server    time.Duration // the job's elapsed_ms as the server reports it
	coalesced bool
}

func openServiceMixed(_ context.Context, e *env) (fixture, error) {
	m, err := newMix(e.root)
	if err != nil {
		return nil, err
	}
	cache, err := os.MkdirTemp(e.tmp, "cache-")
	if err != nil {
		return nil, err
	}
	n := runtime.GOMAXPROCS(0)
	// A fresh store: the daemon starts cold, as after a restart.
	mgr := service.NewManager(service.Config{
		Options: []fenceplace.Option{fenceplace.WithCacheDir(cache), fenceplace.WithSpillDir("")},
	})
	ts := httptest.NewServer(service.NewServer(mgr).Handler())
	return &serviceMixed{
		e: e, mix: m, cache: cache, mgr: mgr, ts: ts, n: n,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n,
		}},
	}, nil
}

func (f *serviceMixed) clients() int { return f.n }

// cold is the mix's warm-up round: every distinct request once, each
// certifying its program against the empty store.
func (f *serviceMixed) cold() int64 { return int64(len(f.mix.all)) }

func (f *serviceMixed) close() {
	f.ts.Close()
	f.mgr.Close()
	f.client.CloseIdleConnections()
	os.RemoveAll(f.cache)
}

// jobDoc is the part of the service's job document the benchmark reads.
type jobDoc struct {
	State     string         `json:"state"`
	Coalesced bool           `json:"coalesced"`
	ElapsedMS int64          `json:"elapsed_ms"`
	Report    *corpus.Report `json:"report"`
	Error     string         `json:"error"`
}

func (f *serviceMixed) run(ctx context.Context) unit {
	opt := f.mix.at(f.e.seed, int(f.next.Add(1)-1))
	u := unit{ops: 1}
	start := time.Now()
	doc, err := f.post(ctx, opt)
	elapsed := time.Since(start)
	if err != nil {
		u.fail(1, opt.key+": "+err.Error())
		return u
	}
	f.mu.Lock()
	f.calls = append(f.calls, serviceCall{
		client: elapsed, server: time.Duration(doc.ElapsedMS) * time.Millisecond, coalesced: doc.Coalesced,
	})
	f.mu.Unlock()
	f.checkRows(&u, opt, doc.Report)
	return u
}

// post submits a request in wait mode and decodes the finished job.
func (f *serviceMixed) post(ctx context.Context, opt *reqOption) (*jobDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.ts.URL+"/v1/jobs?wait=1", bytes.NewReader(opt.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	if doc.State != string(service.StateDone) {
		return nil, fmt.Errorf("job %s: %s", doc.State, doc.Error)
	}
	return &doc, nil
}

// checkRows checks a finished job's single row against the oracle.
func (f *serviceMixed) checkRows(u *unit, opt *reqOption, rep *corpus.Report) {
	if rep == nil || len(rep.Rows) != 1 {
		u.fail(1, opt.key+": job report does not hold exactly one row")
		return
	}
	if bad := f.e.golden.checkRow("service/"+opt.key, &rep.Rows[0]); len(bad) > 0 {
		u.fail(1, bad...)
	}
}

// direct handles one request of the sequence the way a job worker does,
// minus HTTP and the job manager: build the program, derive its key,
// analyze, load or explore the SC baseline through the store, certify
// every variant, and encode the report the response would carry.
func (f *serviceMixed) direct(ctx context.Context, sc scope) unit {
	i := f.next.Add(1) - 1
	opt := f.mix.at(f.e.seed, int(i))
	u := unit{ops: 1}
	sc.op = i // spans of a request carry its index in the sequence
	req, end := sc.enter(layerBench, "request "+opt.key, 0)
	row, err := f.job(ctx, req, opt)
	end(err)
	if err != nil {
		u.fail(1, opt.key+": "+err.Error())
		return u
	}
	f.checkRows(&u, opt, &corpus.Report{Rows: []corpus.Row{*row}})
	return u
}

func (f *serviceMixed) job(ctx context.Context, sc scope, opt *reqOption) (*corpus.Row, error) {
	prog, err := buildRequest(sc, opt)
	if err != nil {
		return nil, err
	}
	strategies := []fenceplace.Strategy{fenceplace.Control}
	if opt.strategy == "all" {
		strategies = evalStrategies
	}
	cfg := mc.Config{MaxStates: serviceMaxStates, MemoryCap: serviceMemoryCap}
	_ = sc.call(layerCodec, "key", func() (int64, error) { // the coalescing key
		mc.BaselineKey(prog, nil, cfg)
		return 0, nil
	})
	row, err := certifyDirect(ctx, sc, opt.name, prog, nil, certPlan{
		strategies: strategies, cfg: cfg, cacheDir: f.cache,
	})
	if err != nil {
		return nil, err
	}
	rep := &corpus.Report{Version: corpus.Version, Source: opt.name, Rows: []corpus.Row{*row}}
	err = sc.call(layerCorpus, "encode", func() (int64, error) {
		var buf bytes.Buffer
		err := rep.EncodeJSON(&buf)
		return int64(buf.Len()), err
	})
	return row, err
}

// buildRequest turns a request into its program, in the layer that does
// it for the service: the corpus builder, the Go frontend or the IR parser.
func buildRequest(sc scope, opt *reqOption) (prog *fenceplace.Program, err error) {
	switch opt.kind {
	case kindCorpus:
		err = sc.call(layerProgs, "build", func() (int64, error) {
			prog = reducedBuild(opt.name)
			return 0, nil
		})
	case kindGo:
		err = sc.call(layerFrontend, "lower", func() (n int64, err error) {
			prog, err = fenceplace.ParseGo("request.go", []byte(opt.src))
			return int64(len(opt.src)), err
		})
	default:
		err = sc.call(layerIR, "parse", func() (n int64, err error) {
			prog, err = fenceplace.Parse(opt.src)
			return int64(len(opt.src)), err
		})
	}
	return prog, err
}

// takeCalls returns and clears the recorded HTTP calls.
func (f *serviceMixed) takeCalls() []serviceCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.calls
	f.calls = nil
	return c
}
