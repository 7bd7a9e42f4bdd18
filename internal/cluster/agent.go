package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/wire"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// AgentOptions configures a node agent.
type AgentOptions struct {
	// ID names the agent (defaults to the listener address).
	ID string
	// Slots is how many jobs the agent trains concurrently.
	Slots int
	// Registry resolves workloads; nil uses the built-ins.
	Registry *workload.Registry
	// Clock drives training time; nil uses a 600x scaled clock.
	Clock clock.Clock
	// CheckpointMode models snapshot capture; 0 = Framework.
	CheckpointMode checkpoint.Mode
	// Seed seeds the capture model.
	Seed int64
	// Obs, when non-nil, receives agent telemetry (jobs running, stats
	// forwarded, snapshots taken) plus the agent-side spans of
	// distributed traces.
	Obs *obs.Registry
	// TraceSink, when non-nil, accumulates Chrome trace events for the
	// agent's job lifecycle (one track per job).
	TraceSink *obs.TraceWriter
	// Logf receives agent diagnostics; nil discards them.
	Logf func(format string, args ...interface{})
}

// Agent is the Node Agent daemon (paper §4.2, component ⑥): it
// executes training jobs on behalf of the scheduler, forwards
// application statistics, and implements suspend/resume via
// checkpoint images. Learning-curve prediction runs in the
// scheduler's policy, not here.
type Agent struct {
	opts     AgentOptions
	registry *workload.Registry
	clk      clock.Clock
	capturer *checkpoint.Capturer

	// Telemetry handles; nil-safe no-ops without a registry.
	jobsRunning *obs.Gauge
	statsTotal  *obs.Counter
	snapsTotal  *obs.Counter

	mu      sync.Mutex
	jobs    map[sched.JobID]*trainingJob
	ident   string // resolved agent ID (set per connection)
	closed  bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	originOnce sync.Once // namespaces the tracer's IDs once
}

// NewAgent builds an agent.
func NewAgent(opts AgentOptions) (*Agent, error) {
	if opts.Slots < 1 {
		return nil, fmt.Errorf("cluster: agent needs >= 1 slot, got %d", opts.Slots)
	}
	if opts.Registry == nil {
		opts.Registry = workload.NewRegistry()
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewScaled(clockEpoch, 600)
	}
	mode := opts.CheckpointMode
	if mode == 0 {
		mode = checkpoint.Framework
	}
	capturer, err := checkpoint.NewCapturer(mode, opts.Seed+7)
	if err != nil {
		return nil, err
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	return &Agent{
		opts:        opts,
		registry:    opts.Registry,
		clk:         opts.Clock,
		capturer:    capturer,
		jobsRunning: opts.Obs.Gauge(obs.AgentJobsRunning),
		statsTotal:  opts.Obs.Counter(obs.AgentStatsTotal),
		snapsTotal:  opts.Obs.Counter(obs.AgentSnapshotsTotal),
		jobs:        make(map[sched.JobID]*trainingJob),
		closeCh:     make(chan struct{}),
	}, nil
}

// Serve accepts scheduler connections on l, one at a time, until Close
// (or a permanent accept error).
func (a *Agent) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			select {
			case <-a.closeCh:
				return nil
			default:
			}
			return fmt.Errorf("cluster: agent accept: %w", err)
		}
		a.serveConn(nc)
	}
}

// Close shuts the agent down, stopping all jobs.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	close(a.closeCh)
	for _, j := range a.jobs {
		j.requestStop()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return nil
}

// statBatchMax bounds how many stat reports accumulate before a flush
// is forced, independent of decision boundaries — a cap on both frame
// size and staleness when many jobs share one connection.
const statBatchMax = 64

// statBatcher coalesces the AppStat reports of one scheduler
// connection into MsgAppStatBatch frames. Jobs add stats as they
// finish epochs; any job about to send an ordered control frame
// (IterDone, Snapshot, JobExited) flushes first, so the scheduler
// always sees a job's statistic before the boundary it raised — the
// same per-job ordering as unbatched MsgAppStat, with one frame where
// concurrent jobs used to cost one each.
type statBatcher struct {
	conn *wire.Conn
	mu   sync.Mutex
	buf  []wire.AppStatPayload
}

func newStatBatcher(conn *wire.Conn) *statBatcher { return &statBatcher{conn: conn} }

// add buffers one stat report, flushing when the batch cap is hit.
func (b *statBatcher) add(p wire.AppStatPayload) error {
	b.mu.Lock()
	b.buf = append(b.buf, p)
	n := len(b.buf)
	b.mu.Unlock()
	if n >= statBatchMax {
		return b.flush()
	}
	return nil
}

// flush sends everything buffered: one plain MsgAppStat when a single
// report is pending (wire-compatible with pre-batch schedulers), one
// MsgAppStatBatch otherwise. The send deliberately happens under
// b.mu: a flush that returns with an empty buffer must mean every
// prior stat is already on the wire, or a concurrent job could emit
// its IterDone ahead of a batch still carrying its statistic.
func (b *statBatcher) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch len(b.buf) {
	case 0:
		return nil
	case 1:
		p := b.buf[0]
		b.buf = b.buf[:0]
		return b.conn.SendTyped(wire.MsgAppStat, p)
	default:
		err := b.conn.SendTyped(wire.MsgAppStatBatch, wire.AppStatBatchPayload{Stats: b.buf})
		b.buf = b.buf[:0]
		return err
	}
}

// serveConn handles one scheduler session.
func (a *Agent) serveConn(nc net.Conn) {
	conn := wire.NewConn(nc)
	defer conn.Close()

	id := a.opts.ID
	if id == "" {
		id = nc.LocalAddr().String()
	}
	a.mu.Lock()
	a.ident = id
	a.mu.Unlock()
	// Namespace span/trace IDs by agent identity so IDs minted here can
	// never collide with the scheduler's (or another agent's) when the
	// spans meet in one trace.
	a.originOnce.Do(func() { a.opts.Obs.Tracer().SetOrigin("agent:" + id) })
	if err := conn.SendTyped(wire.MsgHello, wire.HelloPayload{AgentID: id, Slots: a.opts.Slots}); err != nil {
		a.opts.Logf("agent: hello: %v", err)
		return
	}
	sb := newStatBatcher(conn)

	for {
		msg, err := conn.Recv()
		if err != nil {
			// A frame from a newer protocol revision is well-framed —
			// the stream is intact, so skip it rather than kill every
			// job on this connection.
			var ute *wire.UnknownTypeError
			if errors.As(err, &ute) {
				a.opts.Logf("agent: recv: %v (frame skipped)", err)
				continue
			}
			a.opts.Logf("agent: recv: %v", err)
			a.stopAllJobs()
			return
		}
		switch msg.Type {
		case wire.MsgPing:
			// Echo the ping's sequence number so the scheduler can match
			// the pong to its pending probe and measure the RTT.
			if err := conn.Send(wire.Message{Type: wire.MsgPong, Seq: msg.Seq}); err != nil {
				return
			}
		case wire.MsgStartJob, wire.MsgResumeJob:
			var p wire.StartJobPayload
			if err := msg.Decode(&p); err != nil {
				a.sendError(conn, "", err)
				continue
			}
			if err := a.startJob(conn, sb, p); err != nil {
				a.sendError(conn, p.JobID, err)
			}
		case wire.MsgDecision:
			var p wire.DecisionPayload
			if err := msg.Decode(&p); err != nil {
				a.sendError(conn, "", err)
				continue
			}
			a.deliverDecision(p)
		case wire.MsgTerminateJob:
			var p wire.JobControlPayload
			if err := msg.Decode(&p); err != nil {
				a.sendError(conn, "", err)
				continue
			}
			a.terminateJob(sched.JobID(p.JobID))
		default:
			a.opts.Logf("agent: unexpected message %s", msg.Type)
		}
	}
}

func (a *Agent) sendError(conn *wire.Conn, jobID string, err error) {
	a.opts.Logf("agent: job %s: %v", jobID, err)
	_ = conn.SendTyped(wire.MsgError, wire.ErrorPayload{JobID: jobID, Message: err.Error()})
}

// startJob validates and launches a training loop.
func (a *Agent) startJob(conn *wire.Conn, sb *statBatcher, p wire.StartJobPayload) error {
	resume := len(p.Snapshot) > 0
	j, err := newTrainingJob(a.registry, StartSpec{
		Job: sched.JobID(p.JobID), Workload: p.Workload, Config: p.Config,
		Seed: p.Seed, MaxEpoch: p.MaxEpoch, Snapshot: p.Snapshot,
		Trace: obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID},
	})
	if err != nil {
		return err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("agent closed")
	}
	if len(a.jobs) >= a.opts.Slots {
		return fmt.Errorf("no free slot (have %d)", a.opts.Slots)
	}
	if _, dup := a.jobs[j.spec.Job]; dup {
		return fmt.Errorf("job %s already running", p.JobID)
	}
	// Open the run span as a child of the scheduler-side span that
	// caused this placement; it stays open until the job leaves the
	// slot and its context is echoed on every frame the job emits.
	name := "agent_start"
	if resume {
		name = "agent_resume"
	}
	epoch := j.trainer.Epoch()
	tracer := a.opts.Obs.Tracer()
	span := tracer.StartSpan(name, p.JobID, epoch, j.spec.Trace)
	span.SetStr("agent", a.ident)
	a.opts.Obs.Flight().JobLive(p.JobID)
	// The propagated context goes into the slice args too, so an
	// agent-side trace file can be stitched to the scheduler's by
	// trace ID / parent span.
	a.opts.TraceSink.Begin("agent "+a.ident, "job "+p.JobID, name, a.clk.Now(),
		map[string]interface{}{"epoch": epoch, "resume": resume,
			"trace": p.TraceID, "parent_span": p.SpanID})
	a.jobs[j.spec.Job] = j
	a.jobsRunning.Set(float64(len(a.jobs)))
	runCtx := span.Context()
	sink := &agentSink{
		a: a, j: j, conn: conn, sb: sb, tracer: tracer, ident: a.ident, span: span,
		wctx: wire.TraceContext{TraceID: runCtx.TraceID, SpanID: runCtx.SpanID},
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		j.run(a.clk, a.capturer, sink)
	}()
	return nil
}

func (a *Agent) deliverDecision(p wire.DecisionPayload) {
	a.mu.Lock()
	j, ok := a.jobs[sched.JobID(p.JobID)]
	a.mu.Unlock()
	if !ok {
		return
	}
	var d sched.Decision
	switch p.Decision {
	case "suspend":
		d = sched.Suspend
	case "terminate":
		d = sched.Terminate
	default:
		d = sched.Continue
	}
	dr := DecisionReply{
		Decision:   d,
		Trace:      obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID},
		Confidence: p.Confidence,
		ERTSeconds: p.ERTSeconds,
		Class:      p.Class,
	}
	select {
	case j.verdict <- dr:
	default: // stale decision; drop
	}
}

func (a *Agent) terminateJob(id sched.JobID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if j, ok := a.jobs[id]; ok {
		j.requestStop()
	}
}

func (a *Agent) stopAllJobs() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, j := range a.jobs {
		j.requestStop()
	}
}

// agentSink reports one agent job's progress as wire frames on the
// scheduler connection that started it, and records the job's
// agent-side spans and trace events.
type agentSink struct {
	a      *Agent
	j      *trainingJob
	conn   *wire.Conn
	sb     *statBatcher
	tracer *obs.Tracer
	ident  string
	span   *obs.Span // run span: opened at start, finished at exit
	// wctx is the run span's context, echoed on every frame this job
	// emits so the scheduler can parent its decision spans under it.
	wctx    wire.TraceContext
	suspend *obs.Span // open agent_suspend span while snapshotting
	dead    bool      // a send failed: the connection is gone
}

// send carries the ordered control frames (IterDone, Snapshot,
// JobExited); flushing the stat batcher first preserves the per-job
// stat-before-boundary ordering the scheduler's DB relies on.
func (s *agentSink) send(t wire.MsgType, payload interface{}) bool {
	if err := s.sb.flush(); err != nil {
		s.a.opts.Logf("agent: flush stats before %s: %v", t, err)
		s.dead = true
		return false
	}
	if err := s.conn.SendTyped(t, payload); err != nil {
		s.a.opts.Logf("agent: send %s: %v", t, err)
		s.dead = true
		return false
	}
	return true
}

func (s *agentSink) stat(st workload.Sample) bool {
	if err := s.sb.add(wire.AppStatPayload{
		JobID: string(s.j.spec.Job), Epoch: st.Epoch, Metric: st.Metric, Dur0nsec: int64(st.Duration),
	}); err != nil {
		s.a.opts.Logf("agent: send %s: %v", wire.MsgAppStat, err)
		s.dead = true
		return false
	}
	s.a.statsTotal.Inc()
	return true
}

func (s *agentSink) boundary(epoch int) bool {
	return s.send(wire.MsgIterDone, wire.IterDonePayload{JobID: string(s.j.spec.Job), Epoch: epoch, TraceContext: s.wctx})
}

// suspending opens the agent_suspend span as a child of the
// scheduler's decision span when it sent one, else of the run span.
func (s *agentSink) suspending(epoch int, parent obs.SpanContext) {
	if !parent.Valid() {
		parent = s.span.Context()
	}
	s.suspend = s.tracer.StartSpan("agent_suspend", string(s.j.spec.Job), epoch, parent)
	s.suspend.SetStr("agent", s.ident)
}

func (s *agentSink) snapshot(epoch int, img checkpoint.Image, _ obs.SpanContext) bool {
	ssp := s.suspend
	s.suspend = nil
	ssp.SetAttr("snapshot_bytes", float64(img.Size))
	sctx := ssp.Context()
	s.tracer.Finish(ssp)
	if !s.send(wire.MsgSnapshot, wire.SnapshotPayload{
		JobID: string(s.j.spec.Job), Epoch: epoch, State: img.Encode(),
		TraceContext: wire.TraceContext{TraceID: sctx.TraceID, SpanID: sctx.SpanID},
	}) {
		return false
	}
	s.a.snapsTotal.Inc()
	return true
}

// exit closes out the job's tracing state (a snapshot that failed
// leaves its suspend span open), frees its slot, and only then tells
// the scheduler the job is gone (unless the connection already
// failed), so a StartJob answering that JobExited finds the slot free.
func (s *agentSink) exit(epoch int, reason ExitReason, err error, _ obs.SpanContext) {
	id := string(s.j.spec.Job)
	if s.suspend != nil {
		s.suspend.SetStr("error", err.Error())
		s.tracer.Finish(s.suspend)
	}
	s.span.SetStr("exit", string(reason))
	s.tracer.Finish(s.span)
	s.a.opts.Obs.Flight().JobDone(id)
	s.a.opts.TraceSink.Instant("agent "+s.ident, "job "+id, string(reason), s.a.clk.Now(), nil)
	s.a.opts.TraceSink.End("agent "+s.ident, "job "+id, s.a.clk.Now())

	s.a.mu.Lock()
	delete(s.a.jobs, s.j.spec.Job)
	s.a.jobsRunning.Set(float64(len(s.a.jobs)))
	s.a.mu.Unlock()

	if s.dead {
		return
	}
	p := wire.JobExitedPayload{JobID: id, Epoch: epoch, Reason: string(reason), TraceContext: s.wctx}
	if err != nil {
		p.Error = err.Error()
	}
	s.send(wire.MsgJobExited, p)
}

// clockEpoch is the base time for default scaled clocks.
var clockEpoch = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
