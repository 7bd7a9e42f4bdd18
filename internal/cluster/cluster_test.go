package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/appstat"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/hypergen"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/sim"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// fastClock compresses simulated minutes into sub-millisecond sleeps.
func fastClock() clock.Clock {
	return clock.NewScaled(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), 200000)
}

func tinyPredictor() curve.Config {
	return curve.Config{Walkers: 8, Iters: 30, BurnFrac: 0.5, MaxSamples: 100, StretchA: 2, Seed: 1}
}

func TestResourceManager(t *testing.T) {
	rm := NewResourceManager([]SlotID{"a", "b"})
	if rm.Total() != 2 || rm.IdleCount() != 2 {
		t.Fatalf("fresh RM: total=%d idle=%d", rm.Total(), rm.IdleCount())
	}
	s1, ok := rm.ReserveIdleMachine()
	if !ok {
		t.Fatal("reserve failed")
	}
	s2, _ := rm.ReserveIdleMachine()
	if _, ok := rm.ReserveIdleMachine(); ok {
		t.Fatal("reserved more slots than exist")
	}
	if err := rm.ReleaseMachine(s1); err != nil {
		t.Fatal(err)
	}
	if err := rm.ReleaseMachine(s1); err == nil {
		t.Fatal("double release accepted")
	}
	if rm.IdleCount() != 1 {
		t.Fatalf("idle = %d, want 1", rm.IdleCount())
	}
	_ = s2
}

func TestWorkerPoolValidation(t *testing.T) {
	events := make(chan Event, 1)
	reg := workload.NewRegistry()
	if _, err := NewWorkerPool(0, reg, fastClock(), nil, events); err == nil {
		t.Fatal("accepted zero slots")
	}
	if _, err := NewWorkerPool(1, nil, fastClock(), nil, events); err == nil {
		t.Fatal("accepted nil registry")
	}
	p, err := NewWorkerPool(1, reg, fastClock(), nil, events)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Start(StartSpec{Job: "j", Slot: "nope", Workload: "cifar10", Config: param.Config{}}); err == nil {
		t.Fatal("accepted unknown slot")
	}
	if err := p.Start(StartSpec{Job: "j", Slot: "worker-0", Workload: "unknown", Config: param.Config{}}); err == nil {
		t.Fatal("accepted unknown workload")
	}
}

func expConfig(t *testing.T, pol policy.Policy, machines, jobs int) Config {
	t.Helper()
	space := param.CIFAR10Space()
	rng := rand.New(rand.NewSource(7))
	var cfgs []param.Config
	for i := 0; i < jobs; i++ {
		cfgs = append(cfgs, space.Sample(rng))
	}
	return Config{
		Workload:  "cifar10",
		Generator: hypergen.NewFixed(cfgs),
		Policy:    pol,
		Machines:  machines,
		MaxJobs:   jobs,
		Clock:     fastClock(),
		Seed:      3,
	}
}

func TestExperimentValidation(t *testing.T) {
	cfg := expConfig(t, policy.NewDefault(), 2, 2)
	cfg.Generator = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted nil generator")
	}
	cfg = expConfig(t, nil, 2, 2)
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted nil policy")
	}
	cfg = expConfig(t, policy.NewDefault(), 0, 2)
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero machines")
	}
	cfg = expConfig(t, policy.NewDefault(), 2, 0)
	cfg.MaxJobs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero MaxJobs")
	}
	cfg = expConfig(t, policy.NewDefault(), 2, 2)
	cfg.Workload = "nope"
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted unknown workload")
	}
}

func TestExperimentDefaultCompletesAll(t *testing.T) {
	e, err := New(expConfig(t, policy.NewDefault(), 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 5 {
		t.Fatalf("completions = %d, want 5 (%+v)", res.Completions, res)
	}
	if res.StoppedBy != "exhausted" {
		t.Fatalf("StoppedBy = %q", res.StoppedBy)
	}
	for _, j := range res.Jobs {
		if j.Epochs != 120 || j.FinalState != sched.Completed {
			t.Fatalf("job %s: epochs=%d state=%v", j.ID, j.Epochs, j.FinalState)
		}
		if j.BusyTime <= 0 {
			t.Fatalf("job %s has no busy time", j.ID)
		}
	}
	if res.Best <= 0.05 {
		t.Fatalf("best = %v", res.Best)
	}
}

func TestExperimentStopAtTarget(t *testing.T) {
	cfg := expConfig(t, policy.NewDefault(), 2, 4)
	cfg.StopAtTarget = true
	cfg.TargetOverride = 0.12 // trivially reachable: even non-learners wobble past it
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached || res.StoppedBy != "target" {
		t.Fatalf("res = %+v", res)
	}
	if res.TimeToTarget <= 0 {
		t.Fatalf("TimeToTarget = %v", res.TimeToTarget)
	}
}

func TestExperimentBudgetStop(t *testing.T) {
	cfg := expConfig(t, policy.NewDefault(), 1, 4)
	cfg.MaxDuration = 30 * time.Minute // one job needs ~2h simulated
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != "budget" {
		t.Fatalf("StoppedBy = %q, want budget", res.StoppedBy)
	}
	if res.Completions != 0 {
		t.Fatalf("completions = %d in a 30-minute budget", res.Completions)
	}
}

func TestExperimentCancel(t *testing.T) {
	cfg := expConfig(t, policy.NewDefault(), 1, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != "canceled" {
		t.Fatalf("StoppedBy = %q", res.StoppedBy)
	}
}

func TestExperimentStopCondition(t *testing.T) {
	cfg := expConfig(t, policy.NewDefault(), 2, 4)
	calls := 0
	cfg.StopCondition = func(db *appstat.DB, info policy.Info) bool {
		calls++
		return calls > 50
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedBy != "condition" {
		t.Fatalf("StoppedBy = %q, want condition", res.StoppedBy)
	}
}

func TestExperimentPOPSuspendResume(t *testing.T) {
	pop, err := policy.NewPOP(policy.POPOptions{Predictor: tinyPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := expConfig(t, pop, 2, 10)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("POP live: suspends=%d resumes=%d terms=%d completions=%d fits=%d",
		res.Suspends, res.Resumes, res.Terminations, res.Completions, res.Fits)
	if res.Terminations == 0 {
		t.Fatal("POP terminated nothing on 10 random configs")
	}
	if res.Suspends > 0 {
		if res.Resumes == 0 && res.Suspends > e.book.Suspended() {
			t.Fatal("suspended jobs never resumed")
		}
		if len(res.Overheads.Records()) != res.Suspends {
			t.Fatalf("overhead records %d != suspends %d", len(res.Overheads.Records()), res.Suspends)
		}
	}
	if res.Fits == 0 {
		t.Fatal("POP never fit a curve")
	}
}

// --- remote agent tests ----------------------------------------------

// startAgent runs an Agent on a loopback listener and returns its
// address and a cleanup func.
func startAgent(t *testing.T, opts AgentOptions) string {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = fastClock()
	}
	if opts.Slots == 0 {
		opts.Slots = 2
	}
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(l)
	t.Cleanup(func() {
		a.Close()
		l.Close()
	})
	return l.Addr().String()
}

func TestAgentEndToEnd(t *testing.T) {
	addr := startAgent(t, AgentOptions{ID: "agent1", Slots: 2})
	events := make(chan Event, 256)
	client, err := DialAgent(addr, events)
	if err != nil {
		t.Fatal(err)
	}
	if client.AgentID() != "agent1" || len(client.Slots()) != 2 {
		t.Fatalf("handshake: id=%s slots=%v", client.AgentID(), client.Slots())
	}

	cfg := expConfig(t, policy.NewDefault(), 0, 4)
	cfg.Executor = client
	cfg.Events = events
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 4 {
		t.Fatalf("completions = %d, want 4 (%+v)", res.Completions, res)
	}
	client.Close()
}

func TestAgentSuspendResumeAcrossConnection(t *testing.T) {
	addr := startAgent(t, AgentOptions{ID: "agent1", Slots: 1})
	events := make(chan Event, 256)
	client, err := DialAgent(addr, events)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pop, err := policy.NewPOP(policy.POPOptions{Predictor: tinyPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := expConfig(t, pop, 0, 6)
	cfg.Executor = client
	cfg.Events = events
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("agent POP: suspends=%d resumes=%d terms=%d completions=%d",
		res.Suspends, res.Resumes, res.Terminations, res.Completions)
	if res.Terminations+res.Completions == 0 {
		t.Fatal("nothing finished over the agent")
	}
}

func TestMultiExecutorTwoAgents(t *testing.T) {
	addr1 := startAgent(t, AgentOptions{ID: "agentA", Slots: 1})
	addr2 := startAgent(t, AgentOptions{ID: "agentB", Slots: 1})
	events := make(chan Event, 256)
	c1, err := DialAgent(addr1, events)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialAgent(addr2, events)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	multi, err := NewMultiExecutor(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Slots()) != 2 {
		t.Fatalf("slots = %v", multi.Slots())
	}

	cfg := expConfig(t, policy.NewDefault(), 0, 4)
	cfg.Executor = multi
	cfg.Events = events
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 4 {
		t.Fatalf("completions = %d, want 4", res.Completions)
	}
}

func TestMultiExecutorRejectsDuplicateSlots(t *testing.T) {
	events := make(chan Event, 16)
	reg := workload.NewRegistry()
	p1, _ := NewWorkerPool(1, reg, fastClock(), nil, events)
	p2, _ := NewWorkerPool(1, reg, fastClock(), nil, events)
	defer p1.Close()
	defer p2.Close()
	if _, err := NewMultiExecutor(p1, p2); err == nil {
		t.Fatal("accepted duplicate worker-0 slots")
	}
}

func TestAgentConnectionLossFailsJobs(t *testing.T) {
	addr := startAgent(t, AgentOptions{ID: "flaky", Slots: 1, Clock: clock.NewScaled(time.Now(), 2000)})
	events := make(chan Event, 256)
	client, err := DialAgent(addr, events)
	if err != nil {
		t.Fatal(err)
	}
	spec := StartSpec{
		Job: "doomed", Slot: client.Slots()[0], Workload: "cifar10",
		Config: param.CIFAR10Space().Sample(rand.New(rand.NewSource(1))),
		Seed:   1, MaxEpoch: 120,
	}
	if err := client.Start(spec); err != nil {
		t.Fatal(err)
	}
	// Wait for the first stat, then cut the connection.
	select {
	case ev := <-events:
		if ev.Kind != EvStat {
			t.Fatalf("first event = %v", ev.Kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no stat from agent")
	}
	client.conn.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Kind == EvExited && ev.Reason == ExitLost && ev.Job == "doomed" {
				return // failure surfaced correctly
			}
		case <-deadline:
			t.Fatal("connection loss never surfaced as job failure")
		}
	}
}

func TestExperimentRecordsReplayableTrace(t *testing.T) {
	rec := trace.NewRecorder(workload.CIFAR10())
	cfg := expConfig(t, policy.NewDefault(), 2, 4)
	cfg.Recorder = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr, complete, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("a Default-policy run should record complete curves")
	}
	if len(tr.Jobs) != 4 {
		t.Fatalf("recorded %d jobs, want 4", len(tr.Jobs))
	}
	// Replaying the recorded trace reproduces the live run's total
	// training volume exactly.
	simRes, err := sim.Run(sim.Options{Trace: tr, Machines: 2, Policy: policy.NewDefault()})
	if err != nil {
		t.Fatal(err)
	}
	var liveBusy, simBusy time.Duration
	for _, j := range res.Jobs {
		liveBusy += j.BusyTime
	}
	for _, j := range simRes.Jobs {
		simBusy += j.BusyTime
	}
	if liveBusy != simBusy {
		t.Fatalf("live busy %v != replay busy %v", liveBusy, simBusy)
	}
}

func TestExperimentEventLog(t *testing.T) {
	var buf bytes.Buffer
	cfg := expConfig(t, policy.NewDefault(), 2, 3)
	cfg.EventLog = NewEventLog(&buf)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	dec := json.NewDecoder(&buf)
	for {
		var rec LogRecord
		if err := dec.Decode(&rec); err != nil {
			break
		}
		kinds[rec.Kind]++
	}
	if kinds["start"] != 3 {
		t.Fatalf("start records = %d, want 3 (kinds %v)", kinds["start"], kinds)
	}
	if kinds["stat"] < 3*120 {
		t.Fatalf("stat records = %d, want >= 360", kinds["stat"])
	}
	if kinds["decision"] == 0 || kinds["completed"] != 3 || kinds["stop"] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestEventLogNilSafeAndDeadWriter(t *testing.T) {
	var l *EventLog
	l.Log(LogRecord{Kind: "x"}) // nil receiver: no panic
	failing := NewEventLog(failWriter{})
	failing.Log(LogRecord{Kind: "a"}) // first write fails -> disabled
	failing.Log(LogRecord{Kind: "b"}) // still no panic
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
