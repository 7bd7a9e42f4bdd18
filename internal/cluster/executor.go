// Package cluster implements the live HyperDrive runtime (paper §4-§5):
// the Job & Resource Manager, the Experiment Runner, the in-process
// worker pool, and the TCP node-agent pair (agent server + scheduler-
// side client) that together execute hyperparameter exploration
// experiments for real — with suspend/resume of training jobs across
// machines, application-statistic streaming, and pluggable Scheduling
// Algorithm Policies.
//
// Training runs against the synthetic workloads of internal/workload;
// a scaled clock (internal/clock) compresses hours of simulated
// training into seconds of wall time while every scheduling code path
// (sockets, snapshots, priorities, policy up-calls) remains real.
package cluster

import (
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// SlotID identifies one execution slot (a machine in the paper's
// terms): a local worker or one slot of a remote agent.
type SlotID string

// StartSpec tells an executor to begin (or resume) training.
type StartSpec struct {
	Job      sched.JobID
	Slot     SlotID
	Workload string
	Config   param.Config
	Seed     int64
	MaxEpoch int
	Snapshot []byte // nil for a fresh start
	// Trace carries the job's trace ID plus the scheduler-side span
	// that caused this placement, so executor-side work is recorded as
	// its child (zero when tracing is off).
	Trace obs.SpanContext
}

// EventKind discriminates executor events.
type EventKind int

// Executor event kinds.
const (
	EvStat EventKind = iota + 1
	EvIterDone
	EvSnapshot
	EvExited
	// EvAgentDown announces that a remote agent was declared dead
	// (missed heartbeats or connection loss). It always precedes the
	// per-job EvExited/ExitLost events of the same failure, so the
	// scheduler can quarantine the agent's slots before any job-loss
	// handling runs.
	EvAgentDown
	// EvAgentUp announces a successful reconnect + re-handshake: the
	// agent's slots are schedulable again.
	EvAgentUp
	// EvAgentError surfaces an agent-level MsgError (one that names no
	// job): the agent is alive but reported a fault the scheduler
	// should log rather than swallow.
	EvAgentError
	// EvWake is a contentless nudge: re-run AllocateJobs. An embedding
	// service injects it when shared-pool capacity may have appeared
	// (another tenant released slots, a suspend was lifted) — events
	// this experiment would otherwise never observe, since it only
	// hears about its own jobs.
	EvWake
)

// ExitReason says why a job left its slot.
type ExitReason string

// Exit reasons.
const (
	ExitCompleted  ExitReason = "completed"
	ExitTerminated ExitReason = "terminated"
	ExitSuspended  ExitReason = "suspended"
	ExitError      ExitReason = "error"
	// ExitLost marks a job that vanished with its agent rather than
	// failing on its own. Jobs lost with a known snapshot are re-queued
	// and resumed on a healthy slot (checkpoint-based re-placement);
	// jobs without one are terminated.
	ExitLost ExitReason = "lost"
)

// DecisionReply answers an IterDone event: the SAP verdict plus the
// scheduler-side decision span that produced it, so the executor can
// record its reaction (suspend, snapshot upload, teardown) as child
// spans of the decision that caused it.
type DecisionReply struct {
	Decision sched.Decision
	Trace    obs.SpanContext
	// Confidence, ERTSeconds, and Class carry the scheduler-side
	// prediction behind the verdict (zero off evaluation boundaries),
	// forwarded over the wire so agents can log why a job was
	// suspended or terminated.
	Confidence float64
	ERTSeconds float64
	Class      string
}

// Event is an executor-to-scheduler notification. IterDone events
// carry a Reply channel: the scheduler must send exactly one decision
// on it, which is how the paper's OnIterationFinish verdict reaches
// the training loop (§4.2).
type Event struct {
	Kind     EventKind
	Job      sched.JobID
	Slot     SlotID
	Epoch    int
	Metric   float64
	Duration time.Duration // epoch duration (simulated time)
	Snapshot []byte
	SnapSize int           // modeled snapshot size (bytes)
	SnapLat  time.Duration // modeled capture latency
	Reason   ExitReason
	Err      error
	Reply    chan DecisionReply
	// Trace is the sender-side span context of the work that raised
	// this event (zero when the executor runs untraced), letting the
	// scheduler parent its decision span under the executor's span.
	Trace obs.SpanContext
	// Agent and AgentSlots carry the fault-tolerance events
	// (EvAgentDown/EvAgentUp/EvAgentError): which agent changed state
	// and the full slot set to quarantine or restore.
	Agent      string
	AgentSlots []SlotID
}

// Executor runs training jobs on a set of slots and reports Events on
// the channel supplied at construction. Implementations: the
// in-process worker pool (WorkerPool) and the remote agent client
// (AgentClient).
//
// Every implementation keeps three rules:
//
//  1. Exactly one EvExited follows each successful Start.
//  2. The executor owns slot occupancy and frees the slot before the
//     job's EvExited is observable: a slot accepts a new Start as soon
//     as its EvExited has been received.
//  3. Nothing is emitted after Close returns.
type Executor interface {
	// Slots lists the execution slots this executor provides.
	Slots() []SlotID
	// Start launches (or resumes, when spec.Snapshot is set) a job on
	// a slot. It returns immediately; progress arrives as Events.
	Start(spec StartSpec) error
	// Close releases all resources and stops all jobs.
	Close() error
}
