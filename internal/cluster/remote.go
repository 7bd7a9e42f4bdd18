package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/wire"
)

// HeartbeatConfig tunes the scheduler-side liveness probe: MsgPing is
// sent every Interval, and the agent is declared dead once Misses
// consecutive pings go unanswered — which covers both clean connection
// resets (caught immediately by the read loop) and silent partitions
// where the TCP stream stays open but nothing flows.
type HeartbeatConfig struct {
	// Interval between pings; 0 disables the heartbeat loop.
	Interval time.Duration
	// Misses is how many consecutive unanswered pings declare the
	// agent dead; values < 1 default to DefaultHeartbeatMisses.
	Misses int
}

// Default heartbeat parameters: a dead agent is detected within
// roughly Interval * (Misses + 1).
const (
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultHeartbeatMisses   = 3
)

// withDefaults fills zero fields. A zero Interval stays zero: the
// heartbeat is opt-in at the AgentClient layer (the supervisor always
// enables it).
func (h HeartbeatConfig) withDefaults() HeartbeatConfig {
	if h.Misses < 1 {
		h.Misses = DefaultHeartbeatMisses
	}
	return h
}

// AgentClientOptions configures the scheduler side of one agent
// connection.
type AgentClientOptions struct {
	// Heartbeat enables the liveness probe when Interval > 0.
	Heartbeat HeartbeatConfig
	// Obs, when non-nil, receives the heartbeat-RTT histogram.
	Obs *obs.Registry
	// OnDown, when non-nil, is invoked exactly once when the
	// connection is declared dead — before the per-job loss events are
	// emitted, so a supervisor can quarantine the agent's slots first.
	// It is not invoked on a clean Close.
	OnDown func(cause error)
}

// AgentClient is the scheduler-side Executor backed by one remote node
// agent over the wire protocol. Each of the agent's slots appears as
// "<agentID>#<n>".
type AgentClient struct {
	conn    *wire.Conn
	agentID string
	slots   []SlotID
	events  chan<- Event
	hb      HeartbeatConfig
	onDown  func(error)
	rtt     *obs.Histogram

	mu        sync.Mutex
	jobSlots  map[sched.JobID]SlotID
	free      []SlotID
	closed    bool
	pings     map[uint64]time.Time // outstanding heartbeat sends by seq
	seq       uint64
	deadCause error // heartbeat verdict, reported instead of the raw read error

	stopOnce sync.Once
	stop     chan struct{} // closed by Close: aborts event sends and the heartbeat
	done     chan struct{} // closed when readLoop exits
}

// DialAgent connects to an agent, performs the Hello handshake, and
// starts the event-forwarding reader. The heartbeat is off; use
// DialAgentSupervised for the fault-tolerant client.
func DialAgent(addr string, events chan<- Event) (*AgentClient, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial agent %s: %w", addr, err)
	}
	return NewAgentClient(nc, events)
}

// NewAgentClient wraps an established connection with default options
// (exposed for tests over net.Pipe).
func NewAgentClient(nc net.Conn, events chan<- Event) (*AgentClient, error) {
	return NewAgentClientOpts(nc, events, AgentClientOptions{})
}

// NewAgentClientOpts wraps an established connection, performs the
// Hello handshake, and starts the reader (plus the heartbeat loop when
// enabled).
func NewAgentClientOpts(nc net.Conn, events chan<- Event, opts AgentClientOptions) (*AgentClient, error) {
	conn := wire.NewConn(nc)
	msg, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: agent handshake: %w", err)
	}
	if msg.Type != wire.MsgHello {
		conn.Close()
		return nil, fmt.Errorf("cluster: agent handshake: unexpected %s", msg.Type)
	}
	var hello wire.HelloPayload
	if err := msg.Decode(&hello); err != nil {
		conn.Close()
		return nil, err
	}
	if hello.Slots < 1 {
		conn.Close()
		return nil, fmt.Errorf("cluster: agent %s advertises %d slots", hello.AgentID, hello.Slots)
	}
	c := &AgentClient{
		conn:     conn,
		agentID:  hello.AgentID,
		events:   events,
		hb:       opts.Heartbeat.withDefaults(),
		onDown:   opts.OnDown,
		rtt:      opts.Obs.Histogram(obs.HeartbeatRTTSeconds),
		jobSlots: make(map[sched.JobID]SlotID),
		pings:    make(map[uint64]time.Time),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := 0; i < hello.Slots; i++ {
		s := SlotID(fmt.Sprintf("%s#%d", hello.AgentID, i))
		c.slots = append(c.slots, s)
		c.free = append(c.free, s)
	}
	go c.readLoop()
	if c.hb.Interval > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// AgentID returns the remote agent's name.
func (c *AgentClient) AgentID() string { return c.agentID }

// Slots implements Executor.
func (c *AgentClient) Slots() []SlotID { return append([]SlotID(nil), c.slots...) }

// Done is closed when the connection's read loop has exited — the
// client is dead (or cleanly closed) and will never emit again.
func (c *AgentClient) Done() <-chan struct{} { return c.done }

// Start implements Executor.
func (c *AgentClient) Start(spec StartSpec) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: agent %s closed", c.agentID)
	}
	// Bind the requested slot.
	idx := -1
	for i, s := range c.free {
		if s == spec.Slot {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: slot %s not free on agent %s", spec.Slot, c.agentID)
	}
	c.free = append(c.free[:idx], c.free[idx+1:]...)
	c.jobSlots[spec.Job] = spec.Slot
	c.mu.Unlock()

	msgType := wire.MsgStartJob
	if spec.Snapshot != nil {
		msgType = wire.MsgResumeJob
	}
	err := c.conn.SendTyped(msgType, wire.StartJobPayload{
		JobID:    string(spec.Job),
		Workload: spec.Workload,
		Config:   spec.Config,
		MaxEpoch: spec.MaxEpoch,
		Seed:     spec.Seed,
		Snapshot: spec.Snapshot,
		TraceContext: wire.TraceContext{
			TraceID: spec.Trace.TraceID,
			SpanID:  spec.Trace.SpanID,
		},
	})
	if err != nil {
		c.releaseSlot(spec.Job)
		return err
	}
	return nil
}

// StopJob implements JobStopper: send MsgTerminateJob so the agent
// closes the job's stop channel. The exit acknowledgement arrives as
// the usual MsgJobExited("terminated") → EvExited flow, which is when
// the slot is actually released.
func (c *AgentClient) StopJob(job sched.JobID, slot SlotID) error {
	c.mu.Lock()
	bound, ok := c.jobSlots[job]
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return fmt.Errorf("cluster: agent %s closed", c.agentID)
	}
	if !ok || bound != slot {
		return fmt.Errorf("cluster: job %s not running on slot %s of agent %s", job, slot, c.agentID)
	}
	return c.conn.SendTyped(wire.MsgTerminateJob, wire.JobControlPayload{JobID: string(job)})
}

// Close implements Executor. Safe to call more than once and after a
// connection failure; it never blocks on a wedged event channel.
func (c *AgentClient) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	err := c.conn.Close()
	<-c.done
	return err
}

// emit delivers one event unless the client is shutting down, so a
// blocked consumer can never deadlock Close.
func (c *AgentClient) emit(ev Event) bool {
	select {
	case c.events <- ev:
		return true
	case <-c.stop:
		return false
	}
}

// releaseSlot frees the slot bound to a job.
func (c *AgentClient) releaseSlot(job sched.JobID) SlotID {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.jobSlots[job]
	if !ok {
		return ""
	}
	delete(c.jobSlots, job)
	c.free = append(c.free, slot)
	return slot
}

// slotOf looks up a running job's slot.
func (c *AgentClient) slotOf(job sched.JobID) SlotID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobSlots[job]
}

// heartbeatLoop pings the agent every hb.Interval, declaring it dead
// once hb.Misses consecutive pings are outstanding. Death is enacted by
// closing the connection: the read loop surfaces the failure through
// the usual failAll path with the heartbeat verdict as cause.
func (c *AgentClient) heartbeatLoop() {
	t := time.NewTicker(c.hb.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if len(c.pings) >= c.hb.Misses {
			c.deadCause = fmt.Errorf("heartbeat: %d pings unanswered over %v",
				len(c.pings), time.Duration(len(c.pings))*c.hb.Interval)
			c.mu.Unlock()
			c.conn.Close()
			return
		}
		c.seq++
		seq := c.seq
		c.pings[seq] = time.Now()
		c.mu.Unlock()
		t0 := time.Now()
		if c.conn.Send(wire.Message{Type: wire.MsgPing, Seq: seq}) != nil {
			// Write failure: the read loop will (or already did) see the
			// same dead connection; closing just accelerates it.
			c.conn.Close()
			return
		}
		if time.Since(t0) > c.hb.Interval {
			// The ping queued behind a large frame (e.g. a snapshot
			// upload) on our own write path. The silence was local
			// congestion, not the agent — don't hold it against it.
			c.forgivePings()
		}
	}
}

// forgivePings clears all outstanding heartbeat probes: any frame from
// the agent is proof of life, so a busy connection streaming stats can
// never be declared dead just because pongs queue behind the data.
func (c *AgentClient) forgivePings() {
	if c.hb.Interval <= 0 {
		return
	}
	c.mu.Lock()
	for s := range c.pings {
		delete(c.pings, s)
	}
	c.mu.Unlock()
}

// handlePong credits one heartbeat reply: the matching ping's RTT is
// recorded and every older outstanding ping is forgiven (any pong is
// proof of life).
func (c *AgentClient) handlePong(seq uint64) {
	var rtt time.Duration
	seen := false
	c.mu.Lock()
	if t0, ok := c.pings[seq]; ok {
		rtt = time.Since(t0)
		seen = true
	}
	for s := range c.pings {
		if s <= seq || seq == 0 {
			delete(c.pings, s)
		}
	}
	c.mu.Unlock()
	if seen {
		c.rtt.Observe(rtt.Seconds())
	}
}

// emitStat forwards one decoded stat report as an EvStat event;
// false means the client is shutting down.
func (c *AgentClient) emitStat(p wire.AppStatPayload) bool {
	return c.emit(Event{
		Kind: EvStat, Job: sched.JobID(p.JobID), Slot: c.slotOf(sched.JobID(p.JobID)),
		Epoch: p.Epoch, Metric: p.Metric, Duration: time.Duration(p.Dur0nsec),
	})
}

// readLoop converts wire messages into executor Events.
func (c *AgentClient) readLoop() {
	defer close(c.done)
	for {
		msg, err := c.conn.Recv()
		if err != nil {
			// Well-framed but from a newer protocol revision: the
			// stream is intact, so skip the frame instead of declaring
			// the agent dead.
			var ute *wire.UnknownTypeError
			if errors.As(err, &ute) {
				continue
			}
			c.failAll(err)
			return
		}
		if msg.Type != wire.MsgPong {
			c.forgivePings()
		}
		switch msg.Type {
		case wire.MsgAppStat:
			var p wire.AppStatPayload
			if msg.Decode(&p) != nil {
				continue
			}
			if !c.emitStat(p) {
				return
			}
		case wire.MsgAppStatBatch:
			// Batched stat decoding: one frame, one JSON parse, N events
			// in emission order — exactly as if each entry had arrived in
			// its own MsgAppStat frame.
			var p wire.AppStatBatchPayload
			if msg.Decode(&p) != nil {
				continue
			}
			stopped := false
			for _, st := range p.Stats {
				if !c.emitStat(st) {
					stopped = true
					break
				}
			}
			if stopped {
				return
			}
		case wire.MsgIterDone:
			var p wire.IterDonePayload
			if msg.Decode(&p) != nil {
				continue
			}
			reply := make(chan DecisionReply, 1)
			ok := c.emit(Event{
				Kind: EvIterDone, Job: sched.JobID(p.JobID), Slot: c.slotOf(sched.JobID(p.JobID)),
				Epoch: p.Epoch, Reply: reply,
				Trace: obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID},
			})
			if !ok {
				return
			}
			go c.forwardDecision(p.JobID, reply)
		case wire.MsgSnapshot:
			var p wire.SnapshotPayload
			if msg.Decode(&p) != nil {
				continue
			}
			ok := c.emit(Event{
				Kind: EvSnapshot, Job: sched.JobID(p.JobID), Slot: c.slotOf(sched.JobID(p.JobID)),
				Epoch: p.Epoch, Snapshot: p.State, SnapSize: len(p.State),
				Trace: obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID},
			})
			if !ok {
				return
			}
		case wire.MsgJobExited:
			var p wire.JobExitedPayload
			if msg.Decode(&p) != nil {
				continue
			}
			job := sched.JobID(p.JobID)
			slot := c.releaseSlot(job)
			var reason ExitReason
			switch p.Reason {
			case "completed":
				reason = ExitCompleted
			case "suspended":
				reason = ExitSuspended
			case "error":
				reason = ExitError
			default:
				reason = ExitTerminated
			}
			ev := Event{
				Kind: EvExited, Job: job, Slot: slot, Epoch: p.Epoch, Reason: reason,
				Trace: obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID},
			}
			if p.Error != "" {
				ev.Err = fmt.Errorf("agent %s: %s", c.agentID, p.Error)
			}
			if !c.emit(ev) {
				return
			}
		case wire.MsgError:
			var p wire.ErrorPayload
			if msg.Decode(&p) != nil {
				continue
			}
			if p.JobID == "" {
				// Agent-level fault: the agent is alive but something
				// outside any job went wrong. Surface it instead of
				// swallowing it.
				ok := c.emit(Event{
					Kind: EvAgentError, Agent: c.agentID,
					Err: fmt.Errorf("agent %s: %s", c.agentID, p.Message),
				})
				if !ok {
					return
				}
				continue
			}
			job := sched.JobID(p.JobID)
			slot := c.releaseSlot(job)
			ok := c.emit(Event{
				Kind: EvExited, Job: job, Slot: slot, Reason: ExitError,
				Err: fmt.Errorf("agent %s: %s", c.agentID, p.Message),
			})
			if !ok {
				return
			}
		case wire.MsgPong:
			c.handlePong(msg.Seq)
		default:
			// Scheduler-bound frames this client does not consume
			// (e.g. a stray MsgHello after handshake) are dropped;
			// any-frame liveness credit was already granted above.
		}
	}
}

// forwardDecision relays one OnIterationFinish verdict to the agent,
// carrying the decision span's context so agent-side reaction spans
// parent under the scheduler's decision.
func (c *AgentClient) forwardDecision(jobID string, reply <-chan DecisionReply) {
	var dr DecisionReply
	select {
	case got, ok := <-reply:
		if !ok {
			return
		}
		dr = got
	case <-c.stop:
		return
	}
	var s string
	switch dr.Decision {
	case sched.Suspend:
		s = "suspend"
	case sched.Terminate:
		s = "terminate"
	default:
		s = "continue"
	}
	p := wire.DecisionPayload{
		JobID:      jobID,
		Decision:   s,
		Confidence: dr.Confidence,
		ERTSeconds: dr.ERTSeconds,
		Class:      dr.Class,
		TraceContext: wire.TraceContext{
			TraceID: dr.Trace.TraceID,
			SpanID:  dr.Trace.SpanID,
		},
	}
	if err := c.conn.SendTyped(wire.MsgDecision, p); err != nil {
		// Connection failure surfaces through readLoop.
		return
	}
}

// failAll declares the connection dead: the client is marked closed so
// no further Start can bind a slot on it, the supervisor hook (if any)
// runs first so slots can be quarantined, and every outstanding job is
// reported lost — the re-placement path, not a training failure.
func (c *AgentClient) failAll(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if c.deadCause != nil {
		cause = c.deadCause
	}
	jobs := make(map[sched.JobID]SlotID, len(c.jobSlots))
	for j, s := range c.jobSlots {
		jobs[j] = s
	}
	c.jobSlots = make(map[sched.JobID]SlotID)
	c.mu.Unlock()
	if c.onDown != nil {
		c.onDown(cause)
	}
	for job, slot := range jobs {
		ok := c.emit(Event{
			Kind: EvExited, Job: job, Slot: slot, Reason: ExitLost,
			Err: fmt.Errorf("agent %s connection lost: %v", c.agentID, cause),
		})
		if !ok {
			return
		}
	}
}

var (
	_ Executor   = (*AgentClient)(nil)
	_ JobStopper = (*AgentClient)(nil)
)

// MultiExecutor fans an experiment out across several agents, exposing
// the union of their slots — the multi-machine deployments of §6
// (4-machine GPU cluster; 15 AWS instances).
type MultiExecutor struct {
	execs  []Executor
	bySlot map[SlotID]Executor
}

// NewMultiExecutor combines executors; slot IDs must be disjoint.
func NewMultiExecutor(execs ...Executor) (*MultiExecutor, error) {
	if len(execs) == 0 {
		return nil, fmt.Errorf("cluster: no executors")
	}
	m := &MultiExecutor{execs: execs, bySlot: make(map[SlotID]Executor)}
	for _, ex := range execs {
		for _, s := range ex.Slots() {
			if _, dup := m.bySlot[s]; dup {
				return nil, fmt.Errorf("cluster: duplicate slot %s across executors", s)
			}
			m.bySlot[s] = ex
		}
	}
	return m, nil
}

// Slots implements Executor.
func (m *MultiExecutor) Slots() []SlotID {
	var out []SlotID
	for _, ex := range m.execs {
		out = append(out, ex.Slots()...)
	}
	return out
}

// Start implements Executor.
func (m *MultiExecutor) Start(spec StartSpec) error {
	ex, ok := m.bySlot[spec.Slot]
	if !ok {
		return fmt.Errorf("cluster: unknown slot %s", spec.Slot)
	}
	return ex.Start(spec)
}

// StopJob implements JobStopper by routing to the executor that owns
// the slot, when it supports stopping.
func (m *MultiExecutor) StopJob(job sched.JobID, slot SlotID) error {
	ex, ok := m.bySlot[slot]
	if !ok {
		return fmt.Errorf("cluster: unknown slot %s", slot)
	}
	stopper, ok := ex.(JobStopper)
	if !ok {
		return fmt.Errorf("cluster: executor for slot %s cannot stop jobs", slot)
	}
	return stopper.StopJob(job, slot)
}

// Close implements Executor.
func (m *MultiExecutor) Close() error {
	var first error
	for _, ex := range m.execs {
		if err := ex.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var (
	_ Executor   = (*MultiExecutor)(nil)
	_ JobStopper = (*MultiExecutor)(nil)
)
