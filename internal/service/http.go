package service

// The HTTP/JSON surface over the job manager. Endpoints:
//
//	POST   /v1/jobs             submit; ?wait=1 blocks for the result,
//	                            ?stream=1 streams progress + result
//	                            (NDJSON, or SSE under Accept: text/event-stream)
//	GET    /v1/jobs/{id}        status snapshot (+ result when finished)
//	GET    /v1/jobs/{id}/stream watch a job's progress without claiming it
//	DELETE /v1/jobs/{id}        release the async submission's claim
//	GET    /healthz             liveness ("ok", 503 once draining)
//	GET    /statusz             build info, config, job stats, store
//	                            snapshot, degradation gauge, metrics
//
// Claim semantics mirror the manager's: an async submission's claim lives
// until the job finishes or a DELETE releases it; a ?wait/?stream
// submission's claim lives exactly as long as the request — a client that
// disconnects mid-exploration releases it, cancelling the job unless
// other coalesced waiters remain.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/buildinfo"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
)

// Server glues the manager to an http.Handler. Build with NewServer,
// mount Handler on any mux or http.Server.
type Server struct {
	m     *Manager
	mux   *http.ServeMux
	start time.Time

	// RetryAfter is the hint returned with 429 when the admission queue is
	// full (default 1s).
	RetryAfter time.Duration

	// CacheDir, when non-empty, lets /statusz include the baseline store's
	// snapshot for that directory.
	CacheDir string
}

// NewServer wraps a manager with the HTTP surface.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), start: time.Now(), RetryAfter: time.Second}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleWatch)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager returns the underlying job manager.
func (s *Server) Manager() *Manager { return s.m }

// errorDoc is the uniform error body.
type errorDoc struct {
	Error string `json:"error"`
}

// jobDoc is the uniform job representation: status endpoints and final
// stream events alike serialize it, so every consumer parses one shape.
type jobDoc struct {
	ID        string         `json:"id"`
	State     JobState       `json:"state"`
	Coalesced bool           `json:"coalesced,omitempty"` // this submission joined an in-flight job
	Program   string         `json:"program,omitempty"`
	ElapsedMS int64          `json:"elapsed_ms,omitempty"`
	Report    *corpus.Report `json:"report,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// snapshotJob renders a job's current state (result included once done).
func snapshotJob(j *Job, coalesced bool) jobDoc {
	j.m.mu.Lock()
	doc := jobDoc{
		ID:        j.id,
		State:     j.state,
		Coalesced: coalesced,
		Program:   j.spec.name,
	}
	rep, err := j.report, j.err
	switch j.state {
	case StateDone, StateFailed, StateCancelled:
		doc.ElapsedMS = j.finished.Sub(j.created).Milliseconds()
	default:
		doc.ElapsedMS = time.Since(j.created).Milliseconds()
	}
	j.m.mu.Unlock()
	doc.Report = rep
	if err != nil {
		doc.Error = err.Error()
	}
	return doc
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a submission error onto its status code.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(int((s.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: err.Error()})
	case err == ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
	}
}

// handleSubmit admits a request and answers in the mode the query
// selects: async (202 + job id), wait (block, then the final jobDoc), or
// stream (progress events, then the final jobDoc).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "request body: " + err.Error()})
		return
	}
	claim, coalesced, err := s.m.Submit(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	j := claim.Job()

	q := r.URL.Query()
	switch {
	case isSet(q.Get("stream")):
		s.streamJob(w, r, j, claim, coalesced)
	case isSet(q.Get("wait")):
		defer claim.Release() // disconnect or completion: either way this waiter is done
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, snapshotJob(j, coalesced))
		case <-r.Context().Done():
			// The client went away; Release (deferred) cancels the job if it
			// was the last waiter. Nothing useful can be written.
		}
	default:
		// Async: the claim lives until the job finishes (or a DELETE). Tie
		// its release to completion so claims never leak.
		go func() {
			<-j.Done()
			claim.Release()
		}()
		writeJSON(w, http.StatusAccepted, snapshotJob(j, coalesced))
	}
}

// isSet interprets a query flag ("1", "true", "yes" — anything but empty,
// "0" and "false").
func isSet(v string) bool {
	switch strings.ToLower(v) {
	case "", "0", "false", "no":
		return false
	}
	return true
}

// handleStatus is the status poll: the job's current jobDoc.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.m.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job (finished jobs are retained only briefly)"})
		return
	}
	writeJSON(w, http.StatusOK, snapshotJob(j, false))
}

// handleWatch streams an existing job's progress without holding a claim:
// a pure observer whose disconnect never cancels anything.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	j := s.m.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job"})
		return
	}
	s.streamJob(w, r, j, nil, false)
}

// handleCancel releases the async submission's claim: the job is
// cancelled if this was its last claim, and untouched while coalesced
// waiters remain. Finished jobs are unaffected.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.m.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job"})
		return
	}
	// Synthesize a claim release against the job. Claims are counters, not
	// identities, so "one DELETE releases one claim" is exactly the
	// decrement the async submit left outstanding.
	(&Claim{job: j}).Release()
	writeJSON(w, http.StatusOK, snapshotJob(j, false))
}

// streamEvent is one line of a progress stream. Exactly one of Progress
// and Job is set; the Job event is final.
type streamEvent struct {
	Kind string `json:"kind"` // "progress" | "row" | "done"

	// Exploration heartbeats and row completions:
	Program      string  `json:"program,omitempty"`
	Mode         string  `json:"mode,omitempty"`
	States       int64   `json:"states,omitempty"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	Frontier     int64   `json:"frontier,omitempty"`
	ElapsedMS    int64   `json:"elapsed_ms,omitempty"`
	Final        bool    `json:"final,omitempty"`

	// The closing event (kind "done"):
	Job *jobDoc `json:"job,omitempty"`
}

// eventOf converts a facade progress event to its wire form.
func eventOf(ev fenceplace.ProgressEvent) streamEvent {
	kind := "progress"
	if ev.Kind == fenceplace.ProgressRow {
		kind = "row"
	}
	return streamEvent{
		Kind:         kind,
		Program:      ev.Program,
		Mode:         ev.Mode,
		States:       ev.States,
		StatesPerSec: ev.StatesPerSec,
		Frontier:     ev.Frontier,
		ElapsedMS:    ev.Elapsed.Milliseconds(),
		Final:        ev.Final,
	}
}

// streamJob writes a job's progress events until it finishes, then the
// final jobDoc, as NDJSON (default) or SSE (Accept: text/event-stream).
// claim, when non-nil, is released on client disconnect — the coalescing
// rules decide whether that cancels the job.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job, claim *Claim, coalesced bool) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	writeEvent := func(ev streamEvent) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			w.Write(b)
			w.Write([]byte{'\n'})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	sub, detach := j.Subscribe()
	defer detach()
	if claim != nil {
		defer claim.Release()
	}

	for {
		select {
		case ev := <-sub:
			writeEvent(eventOf(ev))
		case <-j.Done():
			// Drain whatever the subscription buffered before the close so
			// the final exploration totals are not lost.
			for {
				select {
				case ev := <-sub:
					writeEvent(eventOf(ev))
					continue
				default:
				}
				break
			}
			doc := snapshotJob(j, coalesced)
			writeEvent(streamEvent{Kind: "done", Job: &doc})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz is the liveness probe: 200 "ok" while accepting, 503 once
// draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.m.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statuszDoc is the /statusz body: enough to see at a glance what build
// is running, how loaded it is, and whether it has degraded.
type statuszDoc struct {
	Version   string    `json:"version"`
	Commit    string    `json:"commit,omitempty"`
	BuiltFrom string    `json:"commit_time,omitempty"`
	Go        string    `json:"go"`
	StartedAt time.Time `json:"started_at"`
	UptimeMS  int64     `json:"uptime_ms"`

	Workers      int    `json:"workers"`
	QueueDepth   int    `json:"queue_capacity"`
	MaxStatesCap int64  `json:"max_states_cap"`
	MemoryCapCap int    `json:"memory_cap_cap"`
	MaxDeadline  string `json:"max_deadline"`
	Draining     bool   `json:"draining"`

	Jobs Stats `json:"jobs"`

	// DegradedMode is the store package's process-wide degradation rung:
	// 0 healthy, higher rungs mean the process has fallen back (1 uncached
	// certification, 3 truncation). Monotonic per process.
	DegradedMode int `json:"degraded_mode"`

	// Store is the baseline store's snapshot when the server runs with a
	// cache directory.
	Store *telemetry.Snapshot `json:"store,omitempty"`

	// Metrics is the process-wide telemetry snapshot (service.*, mc.*,
	// store.* families).
	Metrics telemetry.Snapshot `json:"metrics"`
}

// handleStatusz renders the introspection document.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	bi := buildinfo.Read()
	cfg := s.m.Config()
	doc := statuszDoc{
		Version:      buildinfo.String(),
		Commit:       bi.Commit,
		BuiltFrom:    bi.CommitTime,
		Go:           bi.Go,
		StartedAt:    s.start,
		UptimeMS:     time.Since(s.start).Milliseconds(),
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		MaxStatesCap: cfg.MaxStatesCap,
		MemoryCapCap: cfg.MemoryCapCeil,
		MaxDeadline:  cfg.MaxDeadline.String(),
		Draining:     s.m.Draining(),
		Jobs:         s.m.Stats(),
		DegradedMode: store.DegradedMode(),
		Metrics:      telemetry.Default().Snapshot(),
	}
	if s.CacheDir != "" {
		if st, err := store.Open(s.CacheDir); err == nil {
			snap := st.Snapshot()
			doc.Store = &snap
		}
	}
	writeJSON(w, http.StatusOK, doc)
}
