// Package sched defines the scheduling vocabulary shared by the live
// HyperDrive runtime (internal/cluster), the discrete-event simulator
// (internal/sim), and the scheduling policies (internal/policy): job
// identities and state machines, machine slots, SAP up-call events, and
// the continue/suspend/terminate decisions of the paper's
// OnIterationFinish interface (§4.2).
package sched

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/param"
)

// JobID identifies one hyperparameter configuration's training job.
type JobID string

// MachineID identifies one slot (machine/GPU) in the cluster.
type MachineID string

// State is a job's lifecycle state.
type State int

// Job states. Transitions: Pending -> Running; Running -> {Suspended,
// Terminated, Completed}; Suspended -> {Running, Terminated}.
const (
	Pending State = iota + 1
	Running
	Suspended
	Terminated
	Completed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Terminated:
		return "terminated"
	case Completed:
		return "completed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether no further transitions are possible.
func (s State) Terminal() bool { return s == Terminated || s == Completed }

// TransitionError reports an illegal job state transition.
type TransitionError struct {
	Job  JobID
	From State
	To   State
}

func (e *TransitionError) Error() string {
	return fmt.Sprintf("sched: job %s: illegal transition %v -> %v", e.Job, e.From, e.To)
}

// Job is one configuration's training job. All methods are safe for
// concurrent use. State, epoch, and priority reads are lock-free
// atomic loads — they sit on the scheduler's decision hot path (every
// GetIdleJob scan reads all three for every idle job) — while the
// transition methods serialize on a mutex so check-then-set stays
// race-free.
type Job struct {
	ID       JobID
	Config   param.Config
	Seed     int64
	MaxEpoch int

	mu       sync.Mutex    // serializes transitions; guards machine
	machine  MachineID     // guarded by mu
	state    atomic.Int32  // State; written only under mu
	epoch    atomic.Int32  // monotonic, advanced by CAS
	priority atomic.Uint64 // math.Float64bits
}

// NewJob creates a pending job.
func NewJob(id JobID, cfg param.Config, seed int64, maxEpoch int) *Job {
	j := &Job{ID: id, Config: cfg, Seed: seed, MaxEpoch: maxEpoch}
	j.state.Store(int32(Pending))
	return j
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	return State(j.state.Load())
}

// Epoch returns the number of completed epochs.
func (j *Job) Epoch() int {
	return int(j.epoch.Load())
}

// SetEpoch records training progress; the epoch only moves forward.
func (j *Job) SetEpoch(e int) {
	for {
		cur := j.epoch.Load()
		if int32(e) <= cur || j.epoch.CompareAndSwap(cur, int32(e)) {
			return
		}
	}
}

// Machine returns the machine the job is (or was last) placed on.
func (j *Job) Machine() MachineID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.machine
}

// Priority returns the job's SAP-assigned priority (paper §4.2
// labelJob); higher runs earlier in the idle queue.
func (j *Job) Priority() float64 {
	return math.Float64frombits(j.priority.Load())
}

// SetPriority implements labelJob.
func (j *Job) SetPriority(p float64) {
	j.priority.Store(math.Float64bits(p))
}

// Start transitions Pending/Suspended -> Running on the given machine.
func (j *Job) Start(m MachineID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.State()
	if st != Pending && st != Suspended {
		return &TransitionError{Job: j.ID, From: st, To: Running}
	}
	j.state.Store(int32(Running))
	j.machine = m
	return nil
}

// Suspend transitions Running -> Suspended.
func (j *Job) Suspend() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if st := j.State(); st != Running {
		return &TransitionError{Job: j.ID, From: st, To: Suspended}
	}
	j.state.Store(int32(Suspended))
	j.machine = ""
	return nil
}

// Terminate transitions Running/Suspended/Pending -> Terminated.
func (j *Job) Terminate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if st := j.State(); st.Terminal() {
		return &TransitionError{Job: j.ID, From: st, To: Terminated}
	}
	j.state.Store(int32(Terminated))
	j.machine = ""
	return nil
}

// Complete transitions Running -> Completed (epoch budget exhausted).
func (j *Job) Complete() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if st := j.State(); st != Running {
		return &TransitionError{Job: j.ID, From: st, To: Completed}
	}
	j.state.Store(int32(Completed))
	j.machine = ""
	return nil
}

// Event is the payload of the SAP up-calls ApplicationStat and
// OnIterationFinish (§4.2): one job's newly reported statistic.
type Event struct {
	Job      JobID
	Epoch    int
	Metric   float64
	Duration time.Duration // duration of the epoch that just finished
	Time     time.Time     // experiment-clock timestamp
	// Rationale, when non-nil, is the zeroed record the engine hands in
	// with an OnIterationFinish up-call; the policy fills in the inputs
	// behind its verdict (estimate, classification, allocation).
	Rationale *Rationale
}

// Decision is the SAP's verdict at an iteration boundary.
type Decision int

// Decisions.
const (
	Continue Decision = iota + 1
	Suspend
	Terminate
)

// String returns the lowercase decision name.
func (d Decision) String() string {
	switch d {
	case Continue:
		return "continue"
	case Suspend:
		return "suspend"
	case Terminate:
		return "terminate"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}
