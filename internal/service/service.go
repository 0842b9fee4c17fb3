// Package service is the long-running certification server behind
// cmd/fenced: it multiplexes concurrent HTTP clients over one warm
// process — one baseline store, one telemetry registry, one pool of
// exploration workers — instead of a cold CLI process per request.
//
// The core is the job Manager. A submission names a program (inline IR
// text or a corpus program), a strategy set and per-job budgets; the
// manager derives the job's canonical identity from mc.BaselineKey plus
// the verdict-shaping knobs and single-flights it: while a job for a key
// is queued or running, further identical submissions coalesce onto it as
// additional claims, so N identical concurrent requests cost exactly one
// SC exploration and every waiter receives the same report rows. Jobs
// admit through a bounded queue (backpressure surfaces as ErrQueueFull —
// HTTP 429) into a fixed worker pool; each job runs through the public
// corpus.Runner under its own context with the clamped deadline, state
// and memory budgets applied, and fans WithProgress heartbeats out to any
// number of subscribed watchers. Releasing the last claim of an
// unfinished job cancels it — a lone disconnected client stops paying for
// an exploration nobody wants, while coalesced waiters keep it alive.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/mc"
	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
)

// Service-level metrics, registered once in the process-wide registry next
// to the mc.* and store.* families.
var (
	mSubmitted   = telemetry.NewCounter("service.jobs_submitted") // claims accepted (coalesced included)
	mStarted     = telemetry.NewCounter("service.jobs_started")   // jobs a worker began running
	mDone        = telemetry.NewCounter("service.jobs_done")      // jobs finished with a report
	mFailed      = telemetry.NewCounter("service.jobs_failed")    // jobs finished with an error
	mCancelled   = telemetry.NewCounter("service.jobs_cancelled") // jobs cancelled (waiters gone or drain)
	mCoalesced   = telemetry.NewCounter("service.coalesced_hits") // submissions that joined an in-flight job
	mRejected    = telemetry.NewCounter("service.queue_rejects")  // submissions bounced off the full queue
	gInflight    = telemetry.NewGauge("service.jobs_inflight")    // queued + running jobs
	gQueueDepth  = telemetry.NewGauge("service.queue_depth")      // jobs admitted and not yet picked up
	mVerdictCert = telemetry.NewCounter("service.verdict_certified")
	mVerdictViol = telemetry.NewCounter("service.verdict_violation")
	mVerdictBudg = telemetry.NewCounter("service.verdict_budget")
	mVerdictErr  = telemetry.NewCounter("service.verdict_error")
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull reports a full admission queue: the client should back
	// off and retry (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining reports a server past SIGTERM: no new work is admitted
	// (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// Config sizes the manager and sets the server-side ceilings client
// budgets are clamped to. The zero value of every field selects the
// documented default.
type Config struct {
	Workers    int // job worker pool size (default GOMAXPROCS, min 1)
	QueueDepth int // admission queue capacity beyond the running jobs (default 64)

	// JobWorkers bounds each job's exploration parallelism
	// (fenceplace.WithWorkers). The default 0 lets every job use
	// GOMAXPROCS; busy pools set 1..k to keep N concurrent jobs from
	// oversubscribing the cores.
	JobWorkers int

	MaxStatesCap    int64         // ceiling and default for per-job max_states (default 1<<21)
	MemoryCapCeil   int           // ceiling for per-job memory_cap words (default 1<<22)
	MaxDeadline     time.Duration // ceiling for per-job deadlines (default 2m)
	DefaultDeadline time.Duration // when the request names none (default 30s)

	// Options is the base option set every job runs under — the cache
	// directory, progress interval and similar process-wide
	// configuration. Per-job budgets are appended after it and win.
	Options []fenceplace.Option
}

// retainJobs bounds how many finished jobs stay queryable through Job()
// for status polling before the oldest are forgotten.
const retainJobs = 256

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxStatesCap <= 0 {
		c.MaxStatesCap = 1 << 21
	}
	if c.MemoryCapCeil <= 0 {
		c.MemoryCapCeil = 1 << 22
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.DefaultDeadline <= 0 || c.DefaultDeadline > c.MaxDeadline {
		c.DefaultDeadline = 30 * time.Second
		if c.DefaultDeadline > c.MaxDeadline {
			c.DefaultDeadline = c.MaxDeadline
		}
	}
	return c
}

// Budget is the per-job resource envelope a submission may request; every
// field is clamped to the server's Config ceilings, never rejected, so a
// greedy client silently gets the house limits.
type Budget struct {
	MaxStates  int64 `json:"max_states,omitempty"`  // model-checker states per exploration
	MemoryCap  int   `json:"memory_cap,omitempty"`  // arena words (anchors the seen-set RAM budget)
	DeadlineMS int64 `json:"deadline_ms,omitempty"` // wall-clock budget for the whole job
}

// Request is one certification submission, as decoded off the wire.
// Exactly one of Program (inline textual IR), GoSource (restricted real-Go
// source, lowered by the frontend) and Corpus (a named corpus program,
// instantiated at Threads/Size like fenceplace certify -prog) must be set.
type Request struct {
	Program  string `json:"program,omitempty"`   // textual IR
	GoSource string `json:"go_source,omitempty"` // restricted real-Go source
	Corpus   string `json:"corpus,omitempty"`    // named corpus program
	Threads  int    `json:"threads,omitempty"`   // corpus instantiation (default 2)
	Size     int64  `json:"size,omitempty"`      // corpus instantiation (0 = reduced default)

	Strategy string   `json:"strategy,omitempty"` // pensieve | control | addresscontrol | all (default control)
	Entry    []string `json:"entry,omitempty"`    // litmus-style flat thread functions (default: main)

	Budget Budget `json:"budget,omitempty"`

	// ProgressMS tunes the exploration heartbeat interval streamed to
	// watchers (default 250ms, floor 10ms).
	ProgressMS int64 `json:"progress_ms,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"      // finished with a report (verdicts inside the rows)
	StateFailed    JobState = "failed"    // finished with an error
	StateCancelled JobState = "cancelled" // claims hit zero or the drain deadline fired
)

// Job is one admitted certification: possibly shared by many coalesced
// submissions. All mutable state is guarded by the owning manager's lock;
// readers outside the package go through the accessor methods.
type Job struct {
	id  string
	key string

	m    *Manager
	spec jobSpec

	state    JobState
	claims   int
	ctx      context.Context // job lifetime; child of the manager's base ctx
	cancel   context.CancelFunc
	done     chan struct{}
	report   *corpus.Report
	err      error
	subs     map[chan fenceplace.ProgressEvent]struct{}
	created  time.Time
	started  time.Time
	finished time.Time
}

// jobSpec is a validated, clamped submission: everything a worker needs
// to run the job, fully resolved at admission time.
type jobSpec struct {
	name       string
	prog       *fenceplace.Program
	strategies []fenceplace.Strategy
	entry      []string
	maxStates  int64
	memoryCap  int
	deadline   time.Duration
	progressMS int64
}

// ID returns the job's identifier ("j-<seq>").
func (j *Job) ID() string { return j.id }

// Key returns the job's coalescing key (the baseline key plus the
// verdict-shaping knobs; see coalesceKey).
func (j *Job) Key() string { return j.key }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.state
}

// Result returns the job's report and error; valid only after Done is
// closed (before that it returns nil, nil).
func (j *Job) Result() (*corpus.Report, error) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.report, j.err
}

// Subscribe attaches a progress watcher: events published while the job
// runs are delivered on the returned channel (buffered; a slow watcher
// drops events rather than stalling the exploration). Detach releases the
// subscription. Subscribing to a finished job returns a channel that
// never fires — select on Done alongside it.
func (j *Job) Subscribe() (<-chan fenceplace.ProgressEvent, func()) {
	ch := make(chan fenceplace.ProgressEvent, 64)
	j.m.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan fenceplace.ProgressEvent]struct{})
	}
	j.subs[ch] = struct{}{}
	j.m.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			j.m.mu.Lock()
			delete(j.subs, ch)
			j.m.mu.Unlock()
		})
	}
}

// publish fans one progress event out to the current subscribers,
// dropping to any watcher whose buffer is full: progress is advisory and
// must never backpressure the exploration.
func (j *Job) publish(ev fenceplace.ProgressEvent) {
	j.m.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.m.mu.Unlock()
}

// Claim is one submission's stake in a (possibly shared) job. Release
// drops it; releasing the last claim of an unfinished job cancels the job.
// Release is idempotent.
type Claim struct {
	job  *Job
	once sync.Once
}

// Job returns the claimed job.
func (c *Claim) Job() *Job { return c.job }

// Release drops the claim. When it was the job's last and the job has not
// finished, the job is cancelled — no waiter is left to want the result.
func (c *Claim) Release() {
	c.once.Do(func() {
		j := c.job
		j.m.mu.Lock()
		if j.claims > 0 { // clamp: a synthesized DELETE can race the auto-release
			j.claims--
		}
		cancel := j.claims == 0 && j.state != StateDone && j.state != StateFailed && j.state != StateCancelled
		j.m.mu.Unlock()
		if cancel {
			j.cancel()
		}
	})
}

// Manager is the job engine: admission, coalescing, the worker pool and
// the finished-job retention window. Create with NewManager, stop with
// Drain (graceful) or Close (immediate).
type Manager struct {
	cfg  Config
	opts []fenceplace.Option // cfg.Options, resolved once

	baseCtx    context.Context // parent of every job context; Close cancels it
	baseCancel context.CancelFunc

	mu       sync.Mutex
	byKey    map[string]*Job // queued + running jobs, by coalescing key
	byID     map[string]*Job // every retained job
	retained []string        // finished job IDs, oldest first, len <= retainJobs
	seq      int64
	draining bool
	closed   bool

	queue chan *Job
	wg    sync.WaitGroup // worker goroutines
}

// NewManager starts the worker pool and returns a ready manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		opts:       fenceplace.Resolved(cfg.Options...),
		baseCtx:    ctx,
		baseCancel: cancel,
		byKey:      make(map[string]*Job),
		byID:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Config returns the manager's resolved configuration (for /statusz).
func (m *Manager) Config() Config { return m.cfg }

// buildSpec validates a request and resolves it into a runnable spec: the
// program is built, the strategy set parsed, and every budget clamped to
// the server ceilings.
func (m *Manager) buildSpec(req *Request) (*jobSpec, error) {
	set := 0
	for _, s := range []string{req.Program, req.GoSource, req.Corpus} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("exactly one of \"program\" (inline IR), \"go_source\" (restricted Go) and \"corpus\" (named program) must be set")
	}
	spec := &jobSpec{entry: req.Entry}

	switch {
	case req.Corpus != "":
		meta := progs.ByName(req.Corpus)
		if meta == nil {
			names := progs.Names()
			sort.Strings(names)
			return nil, fmt.Errorf("unknown corpus program %q (valid: %s)", req.Corpus, strings.Join(names, ", "))
		}
		spec.name = req.Corpus
		spec.prog = meta.Build(meta.CertParams(req.Threads, req.Size))
	case req.GoSource != "":
		// Lowering is canonical, so byte-different Go sources of the same
		// program coalesce for free: coalesceKey hashes the lowered IR.
		p, err := fenceplace.ParseGo("request.go", []byte(req.GoSource))
		if err != nil {
			return nil, fmt.Errorf("go_source: %w", err)
		}
		spec.name = p.Name
		if spec.name == "" {
			spec.name = "submitted"
		}
		spec.prog = p
	default:
		p, err := fenceplace.Parse(req.Program)
		if err != nil {
			return nil, fmt.Errorf("program: %w", err)
		}
		spec.name = p.Name
		if spec.name == "" {
			spec.name = "submitted"
		}
		spec.prog = p
	}

	word := req.Strategy
	if strings.TrimSpace(word) == "" {
		word = "control"
	}
	var err error
	if spec.strategies, err = fenceplace.ParseStrategies(word); err != nil {
		return nil, err
	}

	// Clamp, never reject: the server's ceilings are the contract.
	spec.maxStates = req.Budget.MaxStates
	if spec.maxStates <= 0 || spec.maxStates > m.cfg.MaxStatesCap {
		spec.maxStates = m.cfg.MaxStatesCap
	}
	spec.memoryCap = req.Budget.MemoryCap
	if spec.memoryCap <= 0 {
		spec.memoryCap = m.cfg.MemoryCapCeil
	} else if spec.memoryCap > m.cfg.MemoryCapCeil {
		spec.memoryCap = m.cfg.MemoryCapCeil
	}
	d := time.Duration(req.Budget.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = m.cfg.DefaultDeadline
	} else if d > m.cfg.MaxDeadline {
		d = m.cfg.MaxDeadline
	}
	spec.deadline = d
	spec.progressMS = req.ProgressMS
	if spec.progressMS > 0 && spec.progressMS < 10 {
		spec.progressMS = 10
	}
	return spec, nil
}

// coalesceKey derives the single-flight identity of a spec. The dominant
// component is mc.BaselineKey — the canonical content hash of the program,
// entry configuration and semantic exploration parameters the persistent
// store files baselines under — extended with every remaining knob that
// can change the response: the strategy set (it selects which variants
// are analyzed and certified) and the clamped state budget and deadline
// (they decide whether a verdict or a truncation comes back). Two
// submissions with equal keys are answer-equivalent by construction, so
// sharing one job can never serve either of them the wrong rows.
func coalesceKey(spec *jobSpec) string {
	key := mc.BaselineKey(spec.prog, spec.entry, mc.Config{MaxStates: spec.maxStates, MemoryCap: spec.memoryCap})
	var sb strings.Builder
	sb.WriteString(key.String())
	for _, s := range spec.strategies {
		fmt.Fprintf(&sb, "|%d", int(s))
	}
	fmt.Fprintf(&sb, "|ms%d|dl%d", spec.maxStates, spec.deadline/time.Millisecond)
	return sb.String()
}

// Submit validates and admits a request. The returned claim is the
// caller's stake in the job — release it when no longer interested (the
// job dies with its last claim). coalesced reports whether the submission
// joined an already in-flight identical job instead of enqueuing a new
// one. Admission failures: ErrDraining after Drain/SIGTERM, ErrQueueFull
// when the bounded queue is at capacity (back off and retry), or a
// validation error describing the bad request.
func (m *Manager) Submit(req *Request) (claim *Claim, coalesced bool, err error) {
	spec, err := m.buildSpec(req)
	if err != nil {
		return nil, false, err
	}
	key := coalesceKey(spec)

	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	// Coalesce onto an identical in-flight job — unless that job is already
	// dying (its last waiter just left): joining a cancelled exploration
	// would hand this submission a result nobody computed.
	if j := m.byKey[key]; j != nil && j.ctx.Err() == nil {
		j.claims++
		m.mu.Unlock()
		mCoalesced.Inc()
		mSubmitted.Inc()
		return &Claim{job: j}, true, nil
	}
	m.seq++
	j := &Job{
		id:      fmt.Sprintf("j-%06d", m.seq),
		key:     key,
		m:       m,
		spec:    *spec,
		state:   StateQueued,
		claims:  1,
		done:    make(chan struct{}),
		created: time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(m.baseCtx)
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		j.cancel()
		mRejected.Inc()
		return nil, false, ErrQueueFull
	}
	m.byKey[key] = j
	m.byID[j.id] = j
	gQueueDepth.Set(int64(len(m.queue)))
	gInflight.Add(1)
	m.mu.Unlock()
	mSubmitted.Inc()
	return &Claim{job: j}, false, nil
}

// Job returns a retained or in-flight job by ID.
func (m *Manager) Job(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byID[id]
}

// Stats is the manager's live job accounting (for /statusz).
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Retained int `json:"retained"` // finished jobs still queryable
}

// Stats counts the current jobs by phase.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Stats
	for _, j := range m.byKey {
		if j.state == StateQueued {
			s.Queued++
		} else {
			s.Running++
		}
	}
	s.Retained = len(m.retained)
	return s
}

// worker is one pool goroutine: it drains the admission queue until the
// queue closes (Drain) or the base context dies (Close).
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job end to end and resolves its waiters.
func (m *Manager) runJob(j *Job) {
	if j.ctx.Err() != nil { // cancelled while queued (waiters gone, or hard stop)
		m.finish(j, nil, context.Canceled)
		return
	}
	m.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	gQueueDepth.Set(int64(len(m.queue)))
	m.mu.Unlock()
	mStarted.Inc()

	ctx, cancelTimeout := context.WithTimeout(j.ctx, j.spec.deadline)
	defer cancelTimeout()

	opts := append([]fenceplace.Option{}, m.opts...)
	opts = append(opts,
		fenceplace.WithMaxStates(j.spec.maxStates),
		fenceplace.WithMemoryCap(j.spec.memoryCap),
		fenceplace.WithProgress(j.publish),
	)
	if m.cfg.JobWorkers > 0 {
		opts = append(opts, fenceplace.WithWorkers(m.cfg.JobWorkers))
	}
	if j.spec.progressMS > 0 {
		opts = append(opts, fenceplace.WithProgressInterval(time.Duration(j.spec.progressMS)*time.Millisecond))
	}

	runner := corpus.Runner{
		Strategies: j.spec.strategies,
		Certify:    true,
		Threads:    j.spec.entry,
		Workers:    1, // one program per job; parallelism lives in the exploration
		Options:    opts,
	}
	rep, err := runner.Run(ctx, corpus.SingleSource(j.spec.name, j.spec.prog, nil))
	m.finish(j, rep, err)
}

// finish records a job's terminal state, publishes the verdict metrics,
// removes it from the in-flight index and trims the retention window.
func (m *Manager) finish(j *Job, rep *corpus.Report, err error) {
	m.mu.Lock()
	j.report, j.err = rep, err
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
	default:
		j.state = StateFailed
	}
	// A dying job may have been superseded in byKey by a fresh submission
	// with the same key; only remove the mapping if it is still ours.
	if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	gInflight.Add(-1)
	m.retained = append(m.retained, j.id)
	for len(m.retained) > retainJobs {
		delete(m.byID, m.retained[0])
		m.retained = m.retained[1:]
	}
	state := j.state
	m.mu.Unlock()

	switch state {
	case StateDone:
		mDone.Inc()
		countVerdicts(rep)
	case StateCancelled:
		mCancelled.Inc()
	default:
		mFailed.Inc()
	}
	j.cancel() // release the job context's resources
	close(j.done)
}

// countVerdicts folds a finished report's certification cells into the
// per-verdict counters.
func countVerdicts(rep *corpus.Report) {
	for _, row := range rep.Rows {
		for _, v := range row.Variants {
			if v.Cert == nil {
				continue
			}
			switch v.Cert.Status {
			case corpus.CertCertified:
				mVerdictCert.Inc()
			case corpus.CertViolation:
				mVerdictViol.Inc()
			case corpus.CertBudget:
				mVerdictBudg.Inc()
			default:
				mVerdictErr.Inc()
			}
		}
	}
}

// Draining reports whether the manager has stopped admitting work.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops admission and waits for in-flight jobs: every queued and
// running job may finish normally until ctx expires, after which the
// stragglers are cancelled and awaited. Drain returns nil when everything
// finished in time and ctx's error otherwise; either way the pool is down
// and no job is left running when it returns.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.closed = true
	close(m.queue) // workers exit once the backlog is gone
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Past the drain deadline: cancel everything still in flight. The
		// base context is the parent of every job context, so one cancel
		// reaches all workers; the queue backlog drains as instant
		// cancellations.
		m.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close is an immediate Drain: in-flight jobs are cancelled rather than
// awaited. Safe to call after Drain.
func (m *Manager) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.Drain(ctx)
	m.baseCancel()
}
