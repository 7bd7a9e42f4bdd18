package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// expChanCap buffers each hosted experiment's routed event stream.
// The router must never block on one slow tenant, so on overflow it
// sheds stats, snapshots and wake-ups, and hands each decision request
// (EvIterDone) or exit (EvExited) to a deliver goroutine that waits
// for room — at 4096 that is a pathology, not an operating mode.
const expChanCap = 4096

// Options configures a Server.
type Options struct {
	// Executor is the shared slot substrate every hosted experiment
	// schedules onto (an in-process WorkerPool or a MultiExecutor over
	// node agents). Required. The server does not close it.
	Executor cluster.Executor
	// Events is the channel Executor was built with. Required; the
	// server's router is its only consumer.
	Events chan cluster.Event
	// Clock drives experiment time for every tenant; nil uses a 600x
	// scaled clock.
	Clock clock.Clock
	// Registry resolves workload names; nil uses the built-ins.
	Registry *workload.Registry
	// MaxExperiments caps concurrently active experiments (admission
	// control); 0 defaults to 16.
	MaxExperiments int
	// Rate is the per-tenant API token-bucket refill in requests per
	// second; 0 defaults to 50. Burst is the bucket size (0: one
	// second's worth).
	Rate  float64
	Burst int
	// Obs (optional) is the server-level registry: admission, rate
	// limit, per-tenant fair-share telemetry, HTTP middleware, and the
	// /metrics fleet rollup. Nil disables all server-level telemetry
	// (the disabled path adds no per-request or per-slot work).
	// Per-experiment registries are always created internally.
	Obs *obs.Registry
	// Pprof mounts net/http/pprof on the server-level obs handler.
	Pprof bool
	// KickInterval bounds how long a starved experiment waits before
	// being re-offered capacity; 0 defaults to 200ms (wall clock).
	KickInterval time.Duration
	// Logf receives server diagnostics; nil discards them.
	Logf func(format string, args ...interface{})
}

// expState is a hosted experiment's lifecycle phase.
const (
	stateRunning  = "running"
	statePaused   = "paused"
	stateDone     = "done"
	stateCanceled = "canceled"
	stateFailed   = "failed"
)

// hosted is one experiment under management.
type hosted struct {
	id       string
	tenant   string
	workload string
	policy   string

	exp     *cluster.Experiment
	pp      *pausablePolicy
	lease   *Lease
	feed    *Feed
	events  chan cluster.Event
	cancel  context.CancelFunc
	reg     *obs.Registry
	dropped *obs.Counter // server-registry serve_feed_dropped_total{experiment}

	submitted time.Time // wall clock

	mu            sync.Mutex
	state         string
	result        *cluster.Result
	err           error
	firstDecision time.Duration // 0 until the first decision record lands
	done          chan struct{}
}

// Server hosts many concurrent experiments behind the hyperdrived
// HTTP/JSON API, brokering one shared executor between tenants.
type Server struct {
	opts    Options
	clk     clock.Clock
	wreg    *workload.Registry
	pool    *cluster.ResourceManager
	broker  *Broker
	limiter *rateLimiter
	mux     *http.ServeMux
	reg     *obs.Registry // nil when fleet observability is disabled
	started time.Time

	metActive        *obs.Gauge
	metTotal         *obs.Counter
	metAdmissionRej  *obs.Counter
	metRateLimited   *obs.Counter
	metRequests      *obs.Counter
	metFirstDecision *obs.Histogram

	mu     sync.Mutex
	exps   map[string]*hosted
	order  []string // submission order, for listing
	nextID int
	closed bool

	wg         sync.WaitGroup
	stop       chan struct{}
	routerDone chan struct{}
	kickerDone chan struct{}
}

// NewServer validates opts, builds the broker over the executor's
// slots, and starts the event router and the capacity kicker. Callers
// serve Handler() and must Close() when done.
func NewServer(opts Options) (*Server, error) {
	if opts.Executor == nil {
		return nil, fmt.Errorf("serve: Options.Executor is required")
	}
	if opts.Events == nil {
		return nil, fmt.Errorf("serve: Options.Events is required")
	}
	if opts.MaxExperiments <= 0 {
		opts.MaxExperiments = 16
	}
	if opts.KickInterval <= 0 {
		opts.KickInterval = 200 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewScaled(time.Now(), 600)
	}
	wreg := opts.Registry
	if wreg == nil {
		wreg = workload.NewRegistry()
	}
	// A nil Obs stays nil: every handle below resolves to a nil-safe
	// no-op, the middleware unwraps, and the broker skips starvation
	// tracking — fleet observability truly off, not silently collected.
	reg := opts.Obs
	s := &Server{
		opts:       opts,
		clk:        clk,
		wreg:       wreg,
		pool:       cluster.NewResourceManager(opts.Executor.Slots()),
		limiter:    newRateLimiter(opts.Rate, opts.Burst, nil),
		mux:        http.NewServeMux(),
		reg:        reg,
		started:    time.Now(),
		exps:       make(map[string]*hosted),
		stop:       make(chan struct{}),
		routerDone: make(chan struct{}),
		kickerDone: make(chan struct{}),

		metActive:        reg.Gauge(obs.ServeExperimentsActive),
		metTotal:         reg.Counter(obs.ServeExperimentsTotal),
		metAdmissionRej:  reg.Counter(obs.ServeAdmissionRejectsTotal),
		metRateLimited:   reg.Counter(obs.ServeRateLimitedTotal),
		metRequests:      reg.Counter(obs.ServeRequestsTotal),
		metFirstDecision: reg.Histogram(obs.ServeSubmitToDecisionSeconds),
	}
	s.broker = NewBroker(s.pool, reg, s.kickAll)
	s.routes()
	go s.router()
	go s.kicker()
	return s, nil
}

// Pool exposes the shared slot pool (tests assert its invariant).
func (s *Server) Pool() *cluster.ResourceManager { return s.pool }

// Broker exposes the fair-share broker.
func (s *Server) Broker() *Broker { return s.broker }

// Handler returns the full API surface wrapped in per-tenant rate
// limiting (tenant = X-Tenant header, "default" otherwise).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			tenant = "default"
		}
		if ok, retry := s.limiter.allow(tenant); !ok {
			s.metRateLimited.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retry)))
			http.Error(w, "tenant rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		s.metRequests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// retrySeconds renders a wait as a whole-second Retry-After value,
// never less than 1 (a 0 would invite an immediate retry storm).
func retrySeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/experiments", s.instrument("submit", s.handleSubmit))
	s.mux.Handle("GET /v1/experiments", s.instrument("list", s.handleList))
	s.mux.Handle("GET /v1/experiments/{id}", s.instrument("status", s.handleStatus))
	s.mux.Handle("GET /v1/experiments/{id}/events", s.instrument("events", s.handleEvents))
	s.mux.Handle("POST /v1/experiments/{id}/suspend", s.instrument("suspend", s.handleSuspend))
	s.mux.Handle("POST /v1/experiments/{id}/resume", s.instrument("resume", s.handleResume))
	s.mux.Handle("POST /v1/experiments/{id}/cancel", s.instrument("cancel", s.handleCancel))
	s.mux.Handle("GET /v1/tenants/{tenant}", s.instrument("tenant", s.handleTenant))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("/obs/", http.StripPrefix("/obs", obs.Handler(s.reg, obs.HandlerOptions{Pprof: s.opts.Pprof})))
}

// handleMetrics is the fleet rollup: the server registry's native
// series merged with every LIVE experiment's registry, each child
// series namespaced with an experiment label. Finished experiments are
// excluded here — their registries stay reachable under
// /v1/experiments/{id}/obs for post-mortems, but the fleet view never
// reads a registry after teardown.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	children := make([]obs.RollupChild, 0, len(s.order))
	for _, id := range s.order {
		he := s.exps[id]
		if he == nil || !he.active() || he.reg == nil {
			continue
		}
		children = append(children, obs.RollupChild{ID: he.id, Reg: he.reg})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheusRollup(w, s.reg, "experiment", children...)
}

// SubmitRequest is the POST /v1/experiments body. Zero values take
// the library defaults (cifar10, POP, random search, 100 jobs).
type SubmitRequest struct {
	Tenant         string  `json:"tenant"`
	Weight         float64 `json:"weight,omitempty"`
	Workload       string  `json:"workload,omitempty"`
	Policy         string  `json:"policy,omitempty"`
	Generator      string  `json:"generator,omitempty"`
	Predictor      string  `json:"predictor,omitempty"`
	MaxJobs        int     `json:"maxJobs,omitempty"`
	MaxDurationSec float64 `json:"maxDurationSec,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	StopAtTarget   bool    `json:"stopAtTarget,omitempty"`
	Target         float64 `json:"target,omitempty"`
}

// ExperimentStatus is the GET /v1/experiments/{id} body.
type ExperimentStatus struct {
	ID              string  `json:"id"`
	Tenant          string  `json:"tenant"`
	State           string  `json:"state"`
	Workload        string  `json:"workload"`
	Policy          string  `json:"policy"`
	HeldSlots       int     `json:"heldSlots"`
	ShareSlots      int     `json:"shareSlots"`
	FirstDecisionMs float64 `json:"firstDecisionMs,omitempty"`
	Best            float64 `json:"best,omitempty"`
	BestJob         string  `json:"bestJob,omitempty"`
	Reached         bool    `json:"reached,omitempty"`
	StoppedBy       string  `json:"stoppedBy,omitempty"`
	DurationSec     float64 `json:"durationSec,omitempty"`
	Jobs            int     `json:"jobs,omitempty"`
	Error           string  `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad submit body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Workload == "" {
		req.Workload = "cifar10"
	}
	if req.MaxJobs <= 0 {
		req.MaxJobs = 100
	}

	// Admission control: reject (with a retry hint) rather than queue
	// when the experiment cap or the slot budget is saturated — every
	// active experiment is guaranteed a ≥1-slot fair share, so more
	// active experiments than slots would deadlock the guarantee.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	active := s.activeLocked()
	if active >= s.opts.MaxExperiments || active >= s.pool.Total() {
		s.mu.Unlock()
		s.metAdmissionRej.Inc()
		w.Header().Set("Retry-After", "5")
		http.Error(w, fmt.Sprintf("saturated: %d active experiments (cap %d, slots %d)",
			active, s.opts.MaxExperiments, s.pool.Total()), http.StatusTooManyRequests)
		return
	}
	s.nextID++
	id := fmt.Sprintf("e%d", s.nextID)
	// events, reg, and dropped are set before the entry is published:
	// the kicker, router, rollup, and health scorer may read them the
	// moment s.mu is released.
	he := &hosted{
		id: id, tenant: req.Tenant, workload: req.Workload,
		state: stateRunning, submitted: time.Now(), done: make(chan struct{}),
		events:  make(chan cluster.Event, expChanCap),
		reg:     obs.NewRegistry(),
		dropped: s.reg.Counter(obs.ServeFeedDroppedTotal(id)),
	}
	// Disjoint trace-ID spaces per experiment: IDs embed an origin hash
	// of the experiment ID, so tenants' traces never collide.
	he.reg.Tracer().SetOrigin("exp:" + id)
	s.exps[id] = he
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.buildAndStart(he, req, r.Header.Get("X-Trace-Id")); err != nil {
		s.mu.Lock()
		delete(s.exps, id)
		if n := len(s.order); n > 0 && s.order[n-1] == id {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.metTotal.Inc()
	s.metActive.Add(1)
	s.opts.Logf("serve: admitted %s (tenant=%s workload=%s policy=%s)", id, req.Tenant, req.Workload, he.policy)
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]string{"id": id})
}

// buildAndStart assembles the per-experiment machinery (registry,
// event feed, namespaced generator, pausable policy, fair-share lease)
// and launches Run. On error every acquired resource is returned.
// traceID, when non-empty, is the caller's inbound X-Trace-Id: the
// submit is recorded as a span on that trace and the experiment's jobs
// join it, so an operator trace spans API edge to scheduler decisions.
func (s *Server) buildAndStart(he *hosted, req SubmitRequest, traceID string) error {
	pol, err := buildPolicy(req.Policy, req.Predictor)
	if err != nil {
		return err
	}
	he.policy = pol.Name()
	spec, err := s.wreg.Lookup(req.Workload)
	if err != nil {
		return err
	}
	gen, err := buildGenerator(req.Generator, spec.Space(), req.Seed, req.MaxJobs)
	if err != nil {
		return err
	}

	expReg := he.reg
	he.feed = NewFeed(he.noteLine(s.metFirstDecision))
	he.feed.onDrop = func(n int) { he.dropped.Add(int64(n)) }
	he.pp = &pausablePolicy{inner: pol}
	he.lease = s.broker.Join(he.tenant, req.Weight)

	// An inbound X-Trace-Id pins the whole experiment to the caller's
	// trace: the submit becomes a span under it and every job's decision
	// spans parent back through it.
	var traceParent obs.SpanContext
	if traceID != "" {
		submitSpan := expReg.Tracer().StartSpan("api_submit", "", 0, obs.SpanContext{TraceID: traceID})
		defer expReg.Tracer().Finish(submitSpan)
		submitSpan.SetStr("tenant", he.tenant)
		submitSpan.SetStr("experiment", he.id)
		traceParent = submitSpan.Context()
	}

	var maxDur time.Duration
	if req.MaxDurationSec > 0 {
		maxDur = time.Duration(req.MaxDurationSec * float64(time.Second))
	}
	exp, err := cluster.New(cluster.Config{
		Workload:       req.Workload,
		Registry:       s.wreg,
		Generator:      &prefixGenerator{prefix: he.id + "/", inner: gen},
		Policy:         he.pp,
		Executor:       s.opts.Executor,
		Events:         he.events,
		Slots:          he.lease,
		MaxJobs:        req.MaxJobs,
		MaxDuration:    maxDur,
		Clock:          s.clk,
		StopAtTarget:   req.StopAtTarget,
		TargetOverride: req.Target,
		Seed:           req.Seed,
		EventLog:       cluster.NewEventLog(he.feed),
		Obs:            expReg,
		TraceParent:    traceParent,
	})
	if err != nil {
		he.lease.Close()
		return err
	}
	he.exp = exp

	// Instance-scoped introspection: each experiment's registry mounts
	// under its own prefix on the server mux (hdtop -addr
	// host:port/v1/experiments/e1/obs). Registrations are permanent —
	// finished experiments keep serving their final metrics.
	prefix := "/v1/experiments/" + he.id + "/obs"
	s.mux.Handle(prefix+"/", http.StripPrefix(prefix, obs.Handler(expReg, obs.HandlerOptions{})))

	ctx, cancel := context.WithCancel(context.Background())
	he.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		res, err := exp.Run(ctx)
		s.finish(he, res, err)
	}()
	return nil
}

// noteLine returns the feed hook that stamps first-decision latency:
// the first event record carrying a decision marks the moment the
// scheduler started working for this tenant.
func (he *hosted) noteLine(hist *obs.Histogram) func(line []byte) {
	marker := []byte(`"kind":"decision"`)
	return func(line []byte) {
		if !bytes.Contains(line, marker) {
			return
		}
		he.mu.Lock()
		first := he.firstDecision == 0
		if first {
			he.firstDecision = time.Since(he.submitted)
		}
		d := he.firstDecision
		he.mu.Unlock()
		if first {
			hist.Observe(d.Seconds())
		}
	}
}

// finish retires a completed experiment: route unregistered, lease and
// log released, watchers woken.
func (s *Server) finish(he *hosted, res *cluster.Result, err error) {
	_ = he.exp.Close()
	he.lease.Close()
	he.feed.Close()
	he.mu.Lock()
	he.result = res
	he.err = err
	switch {
	case err != nil:
		he.state = stateFailed
	case res != nil && res.StoppedBy == "canceled":
		he.state = stateCanceled
	default:
		he.state = stateDone
	}
	close(he.done)
	he.mu.Unlock()
	s.metActive.Add(-1)
	s.opts.Logf("serve: %s finished (%s)", he.id, he.State())
	s.kickAll()
}

// State returns the experiment's lifecycle phase.
func (he *hosted) State() string {
	he.mu.Lock()
	defer he.mu.Unlock()
	return he.state
}

func (he *hosted) active() bool {
	st := he.State()
	return st == stateRunning || st == statePaused
}

func (s *Server) activeLocked() int {
	var n int
	for _, he := range s.exps {
		if he.active() {
			n++
		}
	}
	return n
}

func (s *Server) lookup(id string) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exps[id]
}

func (s *Server) status(he *hosted) ExperimentStatus {
	he.mu.Lock()
	st := ExperimentStatus{
		ID: he.id, Tenant: he.tenant, State: he.state,
		Workload: he.workload, Policy: he.policy,
	}
	if he.firstDecision > 0 {
		st.FirstDecisionMs = float64(he.firstDecision) / float64(time.Millisecond)
	}
	res, err := he.result, he.err
	he.mu.Unlock()
	if he.lease != nil {
		st.HeldSlots = he.lease.Held()
		st.ShareSlots = he.lease.Total()
	}
	if res != nil {
		st.Best = res.Best
		st.BestJob = string(res.BestJob)
		st.Reached = res.Reached
		st.StoppedBy = res.StoppedBy
		st.DurationSec = res.Duration.Seconds()
		st.Jobs = len(res.Jobs)
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	hes := make([]*hosted, 0, len(s.order))
	for _, id := range s.order {
		if he := s.exps[id]; he != nil {
			hes = append(hes, he)
		}
	}
	s.mu.Unlock()
	out := make([]ExperimentStatus, 0, len(hes))
	for _, he := range hes {
		out = append(out, s.status(he))
	}
	writeJSON(w, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	he := s.lookup(r.PathValue("id"))
	if he == nil {
		http.Error(w, "no such experiment", http.StatusNotFound)
		return
	}
	writeJSON(w, s.status(he))
}

// handleEvents long-polls the experiment's event feed:
// ?after=<seq> resumes a cursor, ?waitMs=<n> (default 0, cap 30s)
// blocks until new records or the deadline.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	he := s.lookup(r.PathValue("id"))
	if he == nil {
		http.Error(w, "no such experiment", http.StatusNotFound)
		return
	}
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad after cursor", http.StatusBadRequest)
			return
		}
		after = n
	}
	var wait time.Duration
	if v := r.URL.Query().Get("waitMs"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			http.Error(w, "bad waitMs", http.StatusBadRequest)
			return
		}
		if ms > 30000 {
			ms = 30000
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	recs, cursor := he.feed.Poll(after, wait)
	if recs == nil {
		recs = []FeedRecord{}
	}
	writeJSON(w, map[string]interface{}{
		"state":  he.State(),
		"cursor": cursor,
		"events": recs,
	})
}

func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	he := s.lookup(r.PathValue("id"))
	if he == nil {
		http.Error(w, "no such experiment", http.StatusNotFound)
		return
	}
	he.mu.Lock()
	if he.state != stateRunning {
		st := he.state
		he.mu.Unlock()
		http.Error(w, "cannot suspend experiment in state "+st, http.StatusConflict)
		return
	}
	he.state = statePaused
	he.mu.Unlock()
	// Order matters: stop handing out slots first, then make the policy
	// answer Suspend so running jobs checkpoint off theirs.
	he.lease.SetPaused(true)
	he.pp.paused.Store(true)
	writeJSON(w, map[string]string{"id": he.id, "state": statePaused})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	he := s.lookup(r.PathValue("id"))
	if he == nil {
		http.Error(w, "no such experiment", http.StatusNotFound)
		return
	}
	he.mu.Lock()
	if he.state != statePaused {
		st := he.state
		he.mu.Unlock()
		http.Error(w, "cannot resume experiment in state "+st, http.StatusConflict)
		return
	}
	he.state = stateRunning
	he.mu.Unlock()
	he.pp.paused.Store(false)
	he.lease.SetPaused(false)
	s.kick(he)
	writeJSON(w, map[string]string{"id": he.id, "state": stateRunning})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	he := s.lookup(r.PathValue("id"))
	if he == nil {
		http.Error(w, "no such experiment", http.StatusNotFound)
		return
	}
	if !he.active() {
		http.Error(w, "experiment already "+he.State(), http.StatusConflict)
		return
	}
	// A paused experiment's policy must answer again (Terminate via the
	// drain path) for cancellation to converge.
	he.lease.SetPaused(false)
	he.cancel()
	writeJSON(w, map[string]string{"id": he.id, "state": "canceling"})
}

func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	st, ok := s.broker.Tenant(r.PathValue("tenant"))
	if !ok {
		http.Error(w, "no such tenant", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// router is the single consumer of the shared executor channel: every
// event is routed to its experiment by job-ID prefix; agent lifecycle
// events update the shared pool first (idempotent) and fan out to all
// active experiments.
func (s *Server) router() {
	defer close(s.routerDone)
	for {
		select {
		case <-s.stop:
			return
		case ev := <-s.opts.Events:
			s.route(ev)
		}
	}
}

func (s *Server) route(ev cluster.Event) {
	switch ev.Kind {
	case cluster.EvAgentDown, cluster.EvAgentUp, cluster.EvAgentError:
		// Quarantine is pool-global: apply it here so a tenant with a
		// backed-up channel cannot delay (or lose) the state change.
		if ev.Kind == cluster.EvAgentDown {
			s.pool.MarkOffline(ev.AgentSlots)
		} else if ev.Kind == cluster.EvAgentUp {
			s.pool.MarkOnline(ev.AgentSlots)
		}
		for _, he := range s.activeExps() {
			select {
			case he.events <- ev:
			default:
				// Rare and load-bearing: deliver off the router loop.
				go s.deliver(he, ev)
			}
		}
		return
	default:
		// Job-scoped kinds (stats, decisions, snapshots, exits, wakes)
		// route by job-ID prefix below.
	}
	id, ok := jobExperiment(ev.Job)
	if !ok {
		s.orphan(ev)
		return
	}
	he := s.lookup(id)
	if he == nil || !he.active() {
		s.orphan(ev)
		return
	}
	select {
	case he.events <- ev:
	default:
		switch ev.Kind {
		case cluster.EvIterDone, cluster.EvExited:
			// Losing a decision request wedges its executor goroutine;
			// losing an exit leaks the slot until drain. Both must land,
			// but the router must not block on one slow tenant — hand the
			// send to a goroutine. Worker-side flow control bounds these:
			// a job emits no further events until its decision is
			// answered, and an exit is its last, so at most one critical
			// send per slot is ever in flight.
			go s.deliver(he, ev)
		default:
			// Stats, snapshots, and wake-ups are lossy by design under
			// overload; the schedulers' estimators tolerate gaps.
			he.dropped.Inc()
			s.opts.Logf("serve: %s event channel full; shed event kind %d", he.id, ev.Kind)
		}
	}
}

// deliver blocks until a backed-up experiment accepts the event — or
// until it finishes or the server stops, in which case the event is
// orphaned like any other post-completion straggler.
func (s *Server) deliver(he *hosted, ev cluster.Event) {
	select {
	case he.events <- ev:
	case <-he.done:
		s.orphan(ev)
	case <-s.stop:
		s.orphan(ev)
	}
}

// orphan handles events no experiment will consume. Decision requests
// must still be answered (the executor goroutine holds the job until
// the 1-buffered reply lands); everything else is dropped.
func (s *Server) orphan(ev cluster.Event) {
	if ev.Kind == cluster.EvIterDone && ev.Reply != nil {
		select {
		case ev.Reply <- cluster.DecisionReply{Decision: sched.Terminate}:
		default:
		}
	}
}

func (s *Server) activeExps() []*hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*hosted, 0, len(s.exps))
	for _, he := range s.exps {
		if he.active() {
			out = append(out, he)
		}
	}
	return out
}

// kick offers one experiment a chance to claim newly freed capacity.
// Non-blocking: a busy experiment will drain its channel soon anyway.
func (s *Server) kick(he *hosted) {
	select {
	case he.events <- cluster.Event{Kind: cluster.EvWake}:
	default:
	}
}

func (s *Server) kickAll() {
	for _, he := range s.activeExps() {
		s.kick(he)
	}
}

// kicker periodically wakes every active experiment: an experiment
// whose fair share was zero at submit blocks on its event channel
// forever without an external nudge, and broker wake-ups alone cannot
// cover slow convergence (weights changing as tenants join and leave).
func (s *Server) kicker() {
	defer close(s.kickerDone)
	t := time.NewTicker(s.opts.KickInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.kickAll()
			s.broker.Sample()
		}
	}
}

// Close cancels every active experiment, waits for their goroutines to
// drain their jobs off the shared executor, and stops the router and
// kicker. The executor itself belongs to the caller.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	hes := make([]*hosted, 0, len(s.exps))
	for _, he := range s.exps {
		hes = append(hes, he)
	}
	s.mu.Unlock()
	for _, he := range hes {
		if he.active() && he.cancel != nil {
			he.cancel()
		}
	}
	s.wg.Wait()
	close(s.stop)
	<-s.routerDone
	<-s.kickerDone
	return nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
