package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/chaos"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// TestTraceEndToEndAcrossFailure is the distributed-tracing e2e: a
// scheduler drives two remote agents over chaos-wrapped connections;
// job-000 is suspended, resumed, then loses its agent to a partition
// and is re-placed from its checkpoint onto the survivor. Afterwards a
// single trace ID must link the scheduler's decision spans to the
// agent-side start/suspend/resume spans for that job — across both
// processes and the failure — and the merged Chrome trace export must
// validate. Run under -race like the other chaos tests.
func TestTraceEndToEndAcrossFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("trace e2e skipped in -short mode")
	}
	epoch := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	agentClock := func() clock.Clock { return clock.NewScaled(epoch, 20000) }

	// One TraceWriter shared by scheduler and agents: the merged file
	// gets one process per participant.
	sink := obs.NewTraceWriter()
	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	addrA := startAgent(t, AgentOptions{ID: "traceA", Slots: 1, Clock: agentClock(), Obs: regA, TraceSink: sink})
	addrB := startAgent(t, AgentOptions{ID: "traceB", Slots: 1, Clock: agentClock(), Obs: regB, TraceSink: sink})

	events := make(chan Event, 256)
	reg := obs.NewRegistry()
	hb := HeartbeatConfig{Interval: 50 * time.Millisecond, Misses: 4}
	backoff := BackoffConfig{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 5}

	// Agent A's dial is scripted exactly like the chaos e2e: the first
	// connection is a partitionable chaos wrapper; redials fail until
	// the test revives the agent.
	var mu sync.Mutex
	var connA *chaos.Conn
	revived := false
	dialA := func() (net.Conn, error) {
		mu.Lock()
		dead := connA != nil && !revived
		mu.Unlock()
		if dead {
			return nil, errors.New("traceA is dead (test script)")
		}
		nc, err := net.Dial("tcp", addrA)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if connA == nil {
			connA = chaos.Wrap(nc, chaos.Options{Seed: 11})
			return connA, nil
		}
		return nc, nil
	}
	supA, err := SuperviseAgent(events, SupervisorOptions{
		Dial: dialA, Heartbeat: hb, Backoff: backoff, Obs: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer supA.Close()
	supB, err := DialAgentSupervised(addrB, events, SupervisorOptions{
		Heartbeat: hb, Backoff: backoff, Obs: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer supB.Close()
	multi, err := NewMultiExecutor(supA, supB)
	if err != nil {
		t.Fatal(err)
	}

	pol := &suspendOncePolicy{Default: policy.NewDefault(), target: "job-000", epoch: 4}
	cfg := expConfig(t, pol, 0, 2)
	cfg.Executor = multi
	cfg.Events = events
	cfg.Obs = reg
	cfg.TraceSink = sink
	cfg.Clock = clock.NewScaled(epoch, 20000)

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type runResult struct {
		res *Result
		err error
	}
	resCh := make(chan runResult, 1)
	go func() {
		res, err := e.Run(context.Background())
		resCh <- runResult{res, err}
	}()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Suspend + resume first so the trace has an agent_suspend and an
	// agent_resume before the failure.
	waitFor("job-000 snapshot + resume", func() bool {
		return reg.Counter(obs.ResumesTotal).Value() >= 1
	})
	// Kill agent A mid-training, wait for checkpoint re-placement onto
	// the survivor, then revive A.
	mu.Lock()
	ca := connA
	mu.Unlock()
	ca.Partition()
	waitFor("checkpoint re-placement of the lost job", func() bool {
		return reg.Counter(obs.JobReplacementsTotal).Value() >= 1
	})
	mu.Lock()
	revived = true
	mu.Unlock()
	waitFor("agent reconnect", func() bool {
		return reg.Counter(obs.AgentReconnectsTotal("traceA")).Value() >= 1
	})
	r := <-resCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	// The run itself survived the failure; the tracing must not have
	// perturbed scheduling.
	if r.res.Completions != 2 || r.res.Replacements < 1 {
		t.Fatalf("completions=%d replacements=%d, want 2 / >=1", r.res.Completions, r.res.Replacements)
	}
	for _, js := range r.res.Jobs {
		if js.FinalState != sched.Completed {
			t.Fatalf("job %s final state = %v, want Completed", js.ID, js.FinalState)
		}
	}

	mj, ok := e.book.Get("job-000")
	if !ok {
		t.Fatal("job-000 not in the job table")
	}
	traceID := mj.TraceID
	if traceID == "" {
		t.Fatal("job-000 has no trace ID")
	}

	// The scheduler's retained spans: decision spans in job-000's trace.
	schedSpans := make(map[string]*obs.Span)
	decisions := 0
	for _, s := range reg.Tracer().Spans() {
		schedSpans[s.ID()] = s
		if s.TraceID() == traceID && s.Snapshot().Name == "decision" {
			decisions++
		}
	}
	if decisions == 0 {
		t.Fatalf("no scheduler decision span carries trace %s", traceID)
	}

	// The agent-side spans of the same trace, from both agents'
	// independent recorders.
	byName := make(map[string][]obs.View)
	for _, r := range []*obs.Registry{regA, regB} {
		for _, s := range r.Tracer().Spans() {
			v := s.Snapshot()
			if v.TraceID == traceID {
				byName[v.Name] = append(byName[v.Name], v)
			}
		}
	}
	for _, name := range []string{"agent_start", "agent_resume", "agent_suspend"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %s span in trace %s (got %v)", name, traceID, byName)
		}
	}
	// The partition forces a second placement: at least two resumes
	// (post-suspend + re-place) must be in the trace.
	if len(byName["agent_resume"]) < 2 {
		t.Fatalf("agent_resume spans = %d, want >= 2 (suspend/resume + re-placement)", len(byName["agent_resume"]))
	}

	// Cross-process causality: the agent's suspend work is a child of a
	// retained scheduler decision span, and every agent-side placement
	// span (start/resume) is too.
	for _, name := range []string{"agent_suspend", "agent_resume"} {
		for _, v := range byName[name] {
			parent, ok := schedSpans[v.ParentID]
			if !ok {
				t.Fatalf("%s span %s: parent %q is not a retained scheduler span", name, v.ID, v.ParentID)
			}
			if pv := parent.Snapshot(); pv.Name != "decision" || pv.Job != "job-000" {
				t.Fatalf("%s span %s: parent %s is %s/%s, want decision/job-000", name, v.ID, v.ParentID, pv.Name, pv.Job)
			}
		}
	}
	// agent_start is the trace root's first executor-side span: its
	// parent is empty (the first placement precedes any decision).
	if p := byName["agent_start"][0].ParentID; p != "" {
		if _, ok := schedSpans[p]; !ok {
			t.Fatalf("agent_start parent %q is neither empty nor a scheduler span", p)
		}
	}

	// Origin prefixes keep cross-process IDs disjoint.
	for name, views := range byName {
		for _, v := range views {
			if _, clash := schedSpans[v.ID]; clash {
				t.Fatalf("%s span ID %s collides with a scheduler span", name, v.ID)
			}
		}
	}

	// The scheduler's flight recorder kept job-000's story: after the
	// job completed, its pinned spans moved to the global ring.
	flight := reg.Flight().Snapshot()
	found := false
	for _, v := range flight.Recent {
		if v.TraceID == traceID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("flight recorder retained no span of trace %s (dropped=%d)", traceID, flight.Dropped)
	}

	// The merged Chrome trace export validates and names all three
	// processes plus the re-placement marker.
	var buf bytes.Buffer
	if err := sink.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceEvents(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, buf.Bytes())
	}
	for _, want := range []string{`"scheduler"`, `"agent traceA"`, `"agent traceB"`, `"re-placed"`, "decision job-000"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exported trace missing %s", want)
		}
	}
}
