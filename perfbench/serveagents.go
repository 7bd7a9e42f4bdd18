package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/hypergen"
	"github.com/hyperdrive-ml/hyperdrive/internal/serve"
	"github.com/hyperdrive-ml/hyperdrive/internal/wire"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// serve-agents runs hyperdrived in-process behind a loopback HTTP
// listener, scheduling onto loopback-TCP node agents over supervised
// connections. A closed-loop client submits one experiment at a time,
// for two tenants weighted 2:1 (every third experiment is the weight-1
// tenant's): submit, long-poll /events until done, poll status, fetch
// the whole feed. Experiments use the Default policy (no curve fits) on
// compressed CIFAR-10 epochs with Tmax beyond the run, so every
// configuration trains its full budget and the per-epoch path (agent,
// wire, executor, router, loop, feed) carries the cost.
//
// One experiment at a time, not one per tenant at once: with two
// hosted experiments that have started all their configurations while
// slots sit idle, each wake-up the broker sends makes both re-reserve
// and release a slot, which wakes both again; the wake-ups multiply
// until the experiments' event channels fill and the router sheds
// statistics (CHANGES.md, FOUND). A run that loses statistics now and
// then cannot be checked, so the concurrent shape waits for that fix.
//
// The experiments (each a submit seed) are fixed; --seed shuffles their
// order and so which tenant runs which.
const (
	serveAgents      = 2
	serveAgentSlots  = 3
	serveSpeedUp     = 20000
	serveConfigs     = 12 // configurations per experiment
	serveExperiments = 3
	serveSeedBase    = 500
	servePollPause   = 20 * time.Millisecond // client think time between polls
)

var serveTenants = []struct {
	name   string
	weight float64
}{{"alpha", 2}, {"beta", 1}}

type serveSetup struct {
	probe    *jobProbe
	agents   []*cluster.Agent
	lns      []net.Listener
	execs    []cluster.Executor
	multi    *cluster.MultiExecutor
	srv      *serve.Server
	http     *http.Server
	httpDone chan struct{}
	base     string
	clk      clock.Clock
	wires    *wireStats // traced only
	refused  atomic.Int64
	agentWG  sync.WaitGroup
}

func buildServe(traced bool) (*serveSetup, error) {
	spec := workload.CIFAR10()
	s := &serveSetup{clk: clock.NewScaled(time.Now(), serveSpeedUp)}
	if traced {
		s.wires = &wireStats{}
	}
	// The agents train on their own clock at the same speed; the probe
	// wraps it to see each job's side of the decision turnaround.
	s.probe = newJobProbe(clock.NewScaled(time.Now(), serveSpeedUp), spec.Target(), spec.EvalBoundary(), traced)
	reg := s.probe.registry()
	events := make(chan cluster.Event, 256)
	fail := func(err error) (*serveSetup, error) {
		s.close()
		return nil, err
	}
	for i := 0; i < serveAgents; i++ {
		ag, err := cluster.NewAgent(cluster.AgentOptions{
			ID: fmt.Sprintf("agent-%d", i), Slots: serveAgentSlots, Registry: reg, Clock: s.probe,
			Logf: func(format string, args ...interface{}) {
				if strings.Contains(fmt.Sprintf(format, args...), "no free slot") {
					s.refused.Add(1)
				}
			},
		})
		if err != nil {
			return fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		s.agents, s.lns = append(s.agents, ag), append(s.lns, ln)
		s.agentWG.Add(1)
		go func() {
			defer s.agentWG.Done()
			_ = ag.Serve(s.wires.listener(ln))
		}()
		addr := ln.Addr().String()
		ex, err := cluster.DialAgentSupervised(addr, events, cluster.SupervisorOptions{
			Dial: func() (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					return nil, err
				}
				return s.wires.conn(c), nil
			},
		})
		if err != nil {
			return fail(err)
		}
		s.execs = append(s.execs, ex)
	}
	multi, err := cluster.NewMultiExecutor(s.execs...)
	if err != nil {
		return fail(err)
	}
	s.multi = multi
	s.srv, err = serve.NewServer(serve.Options{
		Executor: multi, Events: events, Clock: s.clk, Registry: reg,
		// The loops poll well under these limits: every response must
		// be 2xx.
		Rate: 1000, Burst: 1000,
	})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.httpDone = make(chan struct{})
	go func() {
		defer close(s.httpDone)
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

func (s *serveSetup) close() {
	if s.http != nil {
		_ = s.http.Close()
		<-s.httpDone
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.multi != nil {
		_ = s.multi.Close()
	} else {
		for _, ex := range s.execs {
			_ = ex.Close()
		}
	}
	for _, ag := range s.agents {
		_ = ag.Close()
	}
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	s.agentWG.Wait()
}

// experimentRun is what the client saw of one submitted experiment.
type experimentRun struct {
	seed     int64
	id       string
	submitAt time.Time // experiment clock
	status   serve.ExperimentStatus
	records  []cluster.LogRecord
	bytes    int
	gaps     int
	firstSeq uint64
	failed   bool
}

func runServeAgents(p runParams) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		t0 := time.Now()
		s, err := buildServe(p.traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.close()
	}

	// The fixed experiments, dealt to the tenants by --seed.
	seeds := make([]int64, serveExperiments)
	for i := range seeds {
		seeds[i] = serveSeedBase + int64(i)
	}
	rand.New(rand.NewSource(p.seed)).Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })

	var makespans, cpus, ttts, heaps, boundaryP50, epochP50, epochMs []float64
	rt0 := snapRuntime()
	err := rounds(p.seconds, func() error {
		t0 := time.Now()
		s, err := buildServe(p.traced)
		if err != nil {
			return err
		}
		defer s.close()
		setups = append(setups, time.Since(t0).Seconds())

		api := newAPIClient(s.base)
		var runs []*experimentRun
		wall0, cpu0 := time.Now(), cpuSeconds()
		for i, seed := range seeds {
			t := serveTenants[0]
			if i%3 == 2 {
				t = serveTenants[1]
			}
			runs = append(runs, api.runExperiment(s.clk, t.name, t.weight, seed))
		}
		makespan := time.Since(wall0).Seconds()
		makespans = append(makespans, makespan)
		cpus = append(cpus, cpuSeconds()-cpu0)

		var hosted []serve.ExperimentStatus
		_, _ = api.call("list", "GET", "/v1/experiments", "alpha", nil, &hosted, true)
		idle, busy, offline := s.srv.Pool().Counts()
		o.check(busy == 0 && offline == 0 && idle == s.srv.Pool().Total(),
			"slot pool ends idle=%d busy=%d offline=%d of %d", idle, busy, offline, s.srv.Pool().Total())
		o.check(len(hosted) == serveExperiments, "%d experiments hosted, %d submitted", len(hosted), serveExperiments)
		var ttt float64
		for _, r := range runs {
			checkServeRun(o, r)
			ttt += r.targetHours()
		}
		ttts = append(ttts, ttt)
		if n := s.refused.Load(); n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: agents refused %d job starts with no free slot\n", n)
		}
		api.hc.CloseIdleConnections()
		o.attempted += api.calls
		o.failed += api.failed
		o.check(api.failed == 0, "%d API calls failed", api.failed)

		s.probe.mu.Lock()
		boundaryP50 = append(boundaryP50, median(s.probe.boundaryMs))
		epochP50 = append(epochP50, median(s.probe.epochMs))
		epochMs = append(epochMs, s.probe.epochMs...)
		s.probe.mu.Unlock()
		heaps = append(heaps, retainedHeapMB())
		if p.traced {
			o.layers["tracing.makespan_s"] = makespan
			putServeLayers(o, s, api, runs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.traced {
		putRuntimeLayers(o, rt0, snapRuntime())
		o.layers["cluster.epoch_turnaround_ms_p90"] = quantile(epochMs, 0.9)
		o.layers["cluster.epoch_turnaround_ms_p99"] = tail99(epochMs)
	}

	o.e2e["setup_s"] = median(setups)
	o.e2e["makespan_s"] = median(makespans)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["time_to_target_h"] = median(ttts)
	o.e2e["boundary_turnaround_ms_p50"] = median(boundaryP50)
	o.e2e["epoch_turnaround_ms_p50"] = median(epochP50)
	// The live heap after the first round: later rounds' count depends
	// on timing.
	o.e2e["heap_retained_mb"] = heaps[0]
	return o, nil
}

// checkServeRun judges one experiment: done, every configuration
// trained to its full budget, and its best equal to the best of fresh
// trainers for its configurations.
func checkServeRun(o *outcome, r *experimentRun) {
	o.attempted += serveConfigs
	if r.failed {
		o.failed += serveConfigs
		return
	}
	spec := workload.CIFAR10()
	o.check(r.status.State == "done", "%s ended %s", r.id, r.status.State)
	o.check(r.gaps == 0, "%s feed lost %d records", r.id, r.gaps)
	// Each configuration's statistics must be epochs 1..MaxEpoch, each
	// once and in order.
	epochs := map[string]int{}
	for _, rec := range r.records {
		switch rec.Kind {
		case "start":
			if _, ok := epochs[rec.Job]; !ok {
				epochs[rec.Job] = 0
			}
		case "stat":
			o.check(rec.Epoch == epochs[rec.Job]+1, "%s job %s reported epoch %d after %d", r.id, rec.Job, rec.Epoch, epochs[rec.Job])
			epochs[rec.Job] = rec.Epoch
		}
	}
	for job, e := range epochs {
		if e == 0 {
			o.failed++
		}
		o.check(e == spec.MaxEpoch(), "%s job %s trained %d of %d epochs", r.id, job, e, spec.MaxEpoch())
	}
	o.failed += serveConfigs - len(epochs)
	o.check(len(epochs) == serveConfigs, "%s started %d of %d configurations", r.id, len(epochs), serveConfigs)

	// The generator the server builds for this submit, and the job seeds
	// the runtime derives (the experiment seed plus the job's 1-based
	// creation index), give every configuration's fresh trainer.
	gen := hypergen.NewRandom(spec.Space(), r.seed, serveConfigs)
	best := 0.0
	for i := 1; i <= serveConfigs; i++ {
		_, cfg, err := gen.CreateJob()
		if err != nil {
			o.check(false, "%s generator: %v", r.id, err)
			return
		}
		tr := spec.New(cfg, r.seed+int64(i))
		for {
			smp, done := tr.Step()
			if smp.Metric > best {
				best = smp.Metric
			}
			if done {
				break
			}
		}
	}
	o.check(r.status.Best == best, "%s best %v, fresh trainers %v", r.id, r.status.Best, best)
}

// targetHours is the experiment-clock time from submit to the first
// statistic at or above the target (to the last record when none is).
func (r *experimentRun) targetHours() float64 {
	target := workload.CIFAR10().Target()
	var last time.Time
	for _, rec := range r.records {
		if rec.Kind == "stat" && rec.Metric >= target {
			return rec.T.Sub(r.submitAt).Hours()
		}
		if rec.T.After(last) {
			last = rec.T
		}
	}
	if last.IsZero() {
		return 0
	}
	return last.Sub(r.submitAt).Hours()
}

// --- API client --------------------------------------------------------

// apiClient is the closed-loop client: one request at a time.
type apiClient struct {
	base   string
	hc     *http.Client
	lat    map[string][]float64 // route -> ms, long polls excluded
	calls  int
	failed int
}

func newAPIClient(base string) *apiClient {
	return &apiClient{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		lat:  map[string][]float64{},
	}
}

// call makes one API request; measured calls add their latency to the
// route's sample. Every call is an attempted operation and any
// response other than 2xx a failed one.
func (c *apiClient) call(route, method, path, tenant string, body, out interface{}, measured bool) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var n int
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		n = len(raw)
		if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
			err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
		}
		if err == nil && out != nil {
			err = json.Unmarshal(raw, out)
		}
	}
	c.calls++
	if err != nil {
		c.failed++
	} else if measured {
		c.lat[route] = append(c.lat[route], ms(time.Since(t0)))
	}
	return n, err
}

type eventsPage struct {
	State  string             `json:"state"`
	Cursor uint64             `json:"cursor"`
	Events []serve.FeedRecord `json:"events"`
}

// runExperiment is one turn of the closed loop.
func (c *apiClient) runExperiment(clk clock.Clock, tenant string, weight float64, seed int64) *experimentRun {
	r := &experimentRun{seed: seed, submitAt: clk.Now()}
	var created map[string]string
	_, err := c.call("submit", "POST", "/v1/experiments", tenant, serve.SubmitRequest{
		Tenant: tenant, Weight: weight, Workload: "cifar10", Policy: "default",
		MaxJobs: serveConfigs, MaxDurationSec: 1e7, Seed: seed,
	}, &created, true)
	if err != nil {
		r.failed = true
		return r
	}
	r.id = created["id"]
	cursor := uint64(0)
	for {
		var page eventsPage
		if _, err := c.call("watch", "GET", fmt.Sprintf("/v1/experiments/%s/events?after=%d&waitMs=200", r.id, cursor), tenant, nil, &page, false); err != nil {
			r.failed = true
			return r
		}
		cursor = page.Cursor
		if _, err := c.call("status", "GET", "/v1/experiments/"+r.id, tenant, nil, &r.status, true); err != nil {
			r.failed = true
			return r
		}
		if r.status.State != "running" && r.status.State != "paused" {
			break
		}
		time.Sleep(servePollPause)
	}
	var page eventsPage
	n, err := c.call("events", "GET", "/v1/experiments/"+r.id+"/events?after=0&waitMs=0", tenant, nil, &page, true)
	if err != nil {
		r.failed = true
		return r
	}
	r.bytes = n
	for i, fr := range page.Events {
		if i == 0 {
			r.firstSeq = fr.Seq
		} else if prev := page.Events[i-1].Seq; fr.Seq != prev+1 {
			r.gaps += int(fr.Seq - prev - 1)
		}
		var rec cluster.LogRecord
		if err := json.Unmarshal(fr.Event, &rec); err == nil {
			r.records = append(r.records, rec)
		}
	}
	return r
}

// --- per-layer table ---------------------------------------------------

func putServeLayers(o *outcome, s *serveSetup, api *apiClient, runs []*experimentRun) {
	var all []float64
	for route, xs := range api.lat {
		all = append(all, xs...)
		if route == "submit" || route == "status" || route == "events" {
			o.layers["serve."+route+"_ms_p50"] = median(xs)
		}
	}
	o.layers["serve.api_ms_p50"] = median(all)
	if len(all) >= 100 {
		o.layers["serve.api_ms_p90"] = quantile(all, 0.9)
	}
	o.layers["serve.hosted_experiments"] = float64(len(runs))

	var records, bytesN, gaps, starts, resumes int
	for _, r := range runs {
		records += len(r.records)
		bytesN += r.bytes
		gaps += r.gaps
		for _, rec := range r.records {
			switch rec.Kind {
			case "start":
				starts++
			case "resume":
				resumes++
			}
		}
	}
	o.layers["serve.feed_records"] = float64(records)
	o.layers["cluster.eventlog_records"] = float64(records)
	o.layers["cluster.eventlog_bytes"] = float64(bytesN)
	o.layers["cluster.eventlog_dropped"] = float64(gaps)
	o.layers["cluster.starts"] = float64(starts)
	o.layers["cluster.resumes"] = float64(resumes)

	s.probe.mu.Lock()
	o.layers["cluster.epoch_overhead_us_p50"] = median(s.probe.epochMs) * 1e3
	o.layers["cluster.start_us_p50"] = median(s.probe.startUs)
	epochs := s.probe.steps
	s.probe.mu.Unlock()
	s.probe.putWorkloadLayers(o)
	s.wires.put(o, epochs)
}

// --- wire probe ----------------------------------------------------------

// wireStats counts what crosses the agent connections, on both ends,
// and keeps the first frames written for re-timing the wire decoder.
// A nil *wireStats leaves listeners and connections unwrapped.
type wireStats struct {
	mu      sync.Mutex
	bytes   int
	frames  int
	writeUs []float64
	samples [][]byte
}

const wireSamples = 2000

func (w *wireStats) listener(ln net.Listener) net.Listener {
	if w == nil {
		return ln
	}
	return &countingListener{Listener: ln, w: w}
}

func (w *wireStats) conn(c net.Conn) net.Conn {
	if w == nil {
		return c
	}
	return &countingConn{Conn: c, w: w}
}

type countingListener struct {
	net.Listener
	w *wireStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.w.conn(c), nil
}

// countingConn splits its written stream into frames (4-byte length
// prefix, then the body) as it goes.
type countingConn struct {
	net.Conn
	w       *wireStats
	pending []byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	d := time.Since(t0)
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	c.w.bytes += n
	c.w.writeUs = append(c.w.writeUs, us(d))
	c.pending = append(c.pending, b[:n]...)
	for len(c.pending) >= 4 {
		size := int(c.pending[0])<<24 | int(c.pending[1])<<16 | int(c.pending[2])<<8 | int(c.pending[3])
		if len(c.pending) < 4+size {
			break
		}
		c.w.frames++
		if len(c.w.samples) < wireSamples {
			c.w.samples = append(c.w.samples, append([]byte(nil), c.pending[:4+size]...))
		}
		c.pending = c.pending[4+size:]
	}
	return n, err
}

func (w *wireStats) put(o *outcome, epochs int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epochs > 0 {
		o.layers["wire.bytes_per_epoch"] = float64(w.bytes) / float64(epochs)
		o.layers["wire.frames_per_epoch"] = float64(w.frames) / float64(epochs)
	}
	o.layers["wire.write_us_p50"] = median(w.writeUs)
	var dec []float64
	for _, f := range w.samples {
		t0 := time.Now()
		_, err := wire.NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(f), io.Discard}).Recv()
		if err == nil {
			dec = append(dec, us(time.Since(t0)))
		}
	}
	o.layers["wire.decode_us_p50"] = median(dec)
}
