package service

// HTTP surface tests: submission modes (async / wait / stream), streamed
// progress heartbeats, coalesced waiters over the wire, status codes for
// backpressure and drain, and the introspection endpoints.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fenceplace/corpus"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, cfg)
	s := NewServer(m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestHTTPWaitSubmit: a blocking submission returns the finished jobDoc
// with the certification rows inline.
func TestHTTPWaitSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", `{"corpus":"dekker","strategy":"control"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if doc.State != StateDone || doc.Report == nil {
		t.Fatalf("doc = %+v, want done with a report", doc)
	}
	if st := doc.Report.Rows[0].Variants[0].Cert.Status; st != corpus.CertCertified {
		t.Errorf("verdict = %q, want %q", st, corpus.CertCertified)
	}
}

// TestHTTPAsyncLifecycle: async submit returns 202 immediately; the
// status endpoint converges on the finished job with its report.
func TestHTTPAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"corpus":"peterson"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID == "" {
		t.Fatalf("202 body without a job id: %s", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var cur jobDoc
		if err := json.Unmarshal(b, &cur); err != nil {
			t.Fatalf("%v in %s", err, b)
		}
		if cur.State == StateDone {
			if cur.Report == nil {
				t.Fatalf("done without report: %s", b)
			}
			break
		}
		if cur.State == StateFailed || cur.State == StateCancelled {
			t.Fatalf("job ended %s: %s", cur.State, b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/j-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPStreamedProgress is the streaming satellite: a ?stream=1
// submission yields at least one exploration heartbeat (mc publishes a
// synchronous final event per exploration, so even fast jobs heartbeat)
// followed by a closing "done" event carrying the full jobDoc.
func TestHTTPStreamedProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs?stream=1", "application/json",
		strings.NewReader(`{"corpus":"dekker","progress_ms":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var progress, rows int
	var final *streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%v in line %q", err, sc.Text())
		}
		switch ev.Kind {
		case "progress":
			progress++
			if ev.Mode != "SC" && ev.Mode != "TSO" {
				t.Errorf("heartbeat with mode %q", ev.Mode)
			}
		case "row":
			rows++
		case "done":
			final = &ev
		default:
			t.Errorf("unknown stream event kind %q", ev.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress < 1 {
		t.Errorf("stream carried %d heartbeats, want >= 1", progress)
	}
	if final == nil || final.Job == nil {
		t.Fatal("stream ended without a done event")
	}
	if final.Job.State != StateDone || final.Job.Report == nil {
		t.Errorf("final event job = %+v, want done with report", final.Job)
	}
}

// TestHTTPStreamSSE: under Accept: text/event-stream the same stream
// comes back as server-sent events.
func TestHTTPStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs?stream=1",
		strings.NewReader(`{"corpus":"dekker"}`))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("data: ")) || !bytes.Contains(body, []byte(`"kind":"done"`)) {
		t.Errorf("SSE body missing data frames or the done event:\n%s", body)
	}
}

// TestHTTPStreamDisconnectCancels: a streaming client that goes away is
// the job's only waiter, so the job is cancelled instead of burning the
// pool for nobody.
func TestHTTPStreamDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxStatesCap: 1 << 26})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs?stream=1",
		strings.NewReader(`{"corpus":"msqueue","threads":3,"size":4,"budget":{"max_states":67108864},"progress_ms":10}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first heartbeat so the exploration is demonstrably
	// running, then drop the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first event: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.Manager().Stats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still in flight %v after its only client disconnected", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := mCancelled.Value(); got < 1 {
		t.Errorf("service.jobs_cancelled = %d, want >= 1", got)
	}
}

// TestHTTPCoalescedWaiters: N concurrent identical ?wait=1 requests all
// succeed and carry byte-identical report rows; all but one are marked
// coalesced. A blocker occupies the single worker so the N requests
// demonstrably overlap.
func TestHTTPCoalescedWaiters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxStatesCap: 1 << 26})

	blockCtx, unblock := context.WithCancel(context.Background())
	blockReq, _ := http.NewRequestWithContext(blockCtx, "POST", ts.URL+"/v1/jobs?stream=1",
		strings.NewReader(`{"corpus":"msqueue","threads":3,"size":4,"budget":{"max_states":67108864},"progress_ms":10}`))
	blockResp, err := http.DefaultClient.Do(blockReq)
	if err != nil {
		t.Fatal(err)
	}
	bsc := bufio.NewScanner(blockResp.Body)
	if !bsc.Scan() { // first heartbeat: the worker is pinned
		t.Fatalf("blocker stream empty: %v", bsc.Err())
	}

	const N = 4
	type result struct {
		doc jobDoc
		raw json.RawMessage
		err error
	}
	results := make([]result, N)
	var wg sync.WaitGroup
	wg.Add(N)
	for i := 0; i < N; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
				strings.NewReader(`{"corpus":"dekker"}`))
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				results[i].err = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			var doc struct {
				jobDoc
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				results[i].err = fmt.Errorf("%v in %s", err, b)
				return
			}
			results[i].doc = doc.jobDoc
			results[i].raw = doc.Report
		}(i)
	}

	// Give the waiters a moment to all reach the manager, then free the
	// worker by disconnecting the blocker.
	time.Sleep(300 * time.Millisecond)
	unblock()
	blockResp.Body.Close()
	wg.Wait()

	var coalesced int
	sameJob := true
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("waiter %d: %v", i, results[i].err)
		}
		if results[i].doc.State != StateDone {
			t.Fatalf("waiter %d state = %s", i, results[i].doc.State)
		}
		if results[i].doc.Coalesced {
			coalesced++
		}
		if results[i].doc.ID != results[0].doc.ID {
			sameJob = false
		}
		if !bytes.Equal(results[i].raw, results[0].raw) {
			t.Errorf("waiter %d rows differ:\n%s\nvs\n%s", i, results[i].raw, results[0].raw)
		}
	}
	// All N landing on one job is the expected steady state; the first one
	// in is not "coalesced".
	if sameJob && coalesced != N-1 {
		t.Errorf("%d of %d waiters marked coalesced on the shared job, want %d", coalesced, N, N-1)
	}
}

// TestHTTPBackpressure: a full queue answers 429 with Retry-After.
func TestHTTPBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxStatesCap: 1 << 26})

	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blockReq, _ := http.NewRequestWithContext(blockCtx, "POST", ts.URL+"/v1/jobs?stream=1",
		strings.NewReader(`{"corpus":"msqueue","threads":3,"size":4,"budget":{"max_states":67108864},"progress_ms":10}`))
	blockResp, err := http.DefaultClient.Do(blockReq)
	if err != nil {
		t.Fatal(err)
	}
	defer blockResp.Body.Close()
	bsc := bufio.NewScanner(blockResp.Body)
	if !bsc.Scan() {
		t.Fatalf("blocker stream empty: %v", bsc.Err())
	}

	if resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"corpus":"dekker","budget":{"max_states":1001}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submission: status %d: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"corpus":"dekker","budget":{"max_states":1002}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestHTTPValidationErrors: malformed submissions come back 400 with a
// descriptive error body.
func TestHTTPValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for body, want := range map[string]string{
		`{}`:                         "exactly one of",
		`{"corpus":"nope"}`:          "unknown corpus",
		`{"corpus":"dekker","x":1}`:  "unknown field",
		`not json`:                   "request body",
		`{"program":"garbage here"}`: "program:",
	} {
		resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
			continue
		}
		var doc errorDoc
		if err := json.Unmarshal(b, &doc); err != nil || !strings.Contains(doc.Error, want) {
			t.Errorf("POST %s: error %q, want substring %q", body, doc.Error, want)
		}
	}
}

// TestHTTPInlineProgram: the inline-IR submission path end to end, using
// the textual format fenceplace.Parse accepts.
func TestHTTPInlineProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	prog := `program sb
global x 1
global y 1
global s0 1
global s1 1
main main

func t0 params=0 regs=2 {
entry:
  r0 = const 1
  store x, r0
  r1 = load y
  store s0, r1
  ret
}

func t1 params=0 regs=2 {
entry:
  r0 = const 1
  store y, r0
  r1 = load x
  store s1, r1
  ret
}

func main params=0 regs=2 {
entry:
  r0 = spawn t0()
  r1 = spawn t1()
  join r0
  join r1
  ret
}
`
	req := Request{Program: prog}
	body, _ := json.Marshal(req)
	resp, b := postJSON(t, ts.URL+"/v1/jobs?wait=1", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var doc jobDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != StateDone || doc.Report == nil {
		t.Fatalf("doc = %+v, want done with report", doc)
	}
}

// TestHTTPHealthAndStatusz: /healthz flips 200 -> 503 across a drain, and
// /statusz carries build identity, config ceilings and the metric
// families the CI smoke asserts on.
func TestHTTPHealthAndStatusz(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxStatesCap: 4242})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz: %d", resp.StatusCode)
	}
	var doc struct {
		Version      string `json:"version"`
		Go           string `json:"go"`
		MaxStatesCap int64  `json:"max_states_cap"`
		Draining     bool   `json:"draining"`
		DegradedMode *int   `json:"degraded_mode"`
		Metrics      struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if doc.Version == "" || doc.Go == "" {
		t.Errorf("statusz missing build identity: %s", body)
	}
	if doc.MaxStatesCap != 4242 {
		t.Errorf("statusz max_states_cap = %d, want 4242", doc.MaxStatesCap)
	}
	if doc.DegradedMode == nil {
		t.Error("statusz missing degraded_mode")
	}
	if _, ok := doc.Metrics.Counters["mc.worker_panics"]; !ok {
		t.Errorf("statusz metrics missing mc.worker_panics (CI smoke asserts on it): %s", body)
	}

	if err := s.Manager().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining: %d, want 503", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"corpus":"dekker"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d (%s), want 503", resp.StatusCode, body)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}
