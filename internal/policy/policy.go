// Package policy implements the Scheduling Algorithm Policy (SAP) layer
// of HyperDrive (paper §4.2 and §5.3): the three up-call interface
// through which the framework drives a policy, and the four policies
// evaluated in the paper — Default (greedy FIFO), Bandit (TuPAQ's
// action-elimination), EarlyTerm (Domhan et al.'s predictive
// termination), and POP (this paper's contribution).
//
// Policies are engine-agnostic: the same implementations run inside the
// live cluster runtime (internal/cluster) and the discrete-event
// simulator (internal/sim), which is exactly the property §7.1's
// "Pluggable Scheduling Policy" component requires.
package policy

import (
	"fmt"
	"sort"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/appstat"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// Info carries the workload- and experiment-level constants a policy
// may consult: the model owner's domain knowledge (§2.1) plus the
// experiment budget.
type Info struct {
	Workload      string
	Target        float64 // y_target, raw metric scale
	KillThreshold float64 // non-learning cutoff, raw metric scale
	RandomFloor   float64
	EvalBoundary  int // default boundary b
	MaxEpoch      int
	MetricMin     float64 // min-max normalization range (Eq. 4)
	MetricMax     float64
	Reward        bool // reinforcement-learning domain (reward metric)
	TotalSlots    int
	MaxDuration   time.Duration // Tmax
}

// Normalize maps a raw metric onto [0, 1] per §6.3 Eq. 4. For
// supervised accuracy with range (0, 1) this is the identity.
func (in Info) Normalize(v float64) float64 {
	span := in.MetricMax - in.MetricMin
	if span <= 0 {
		return v
	}
	n := (v - in.MetricMin) / span
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// Context is the view of the experiment the framework exposes to a
// SAP. Both engines (live cluster and simulator) implement it.
type Context interface {
	// Info returns the experiment constants.
	Info() Info
	// DB is the AppStat database (§4.2 component ③).
	DB() *appstat.DB
	// Now is the experiment clock.
	Now() time.Time
	// Start is when the experiment began; Tpass = Now - Start.
	Start() time.Time
	// IdleSlots reports currently unoccupied machines.
	IdleSlots() int
	// IdleJobs reports jobs waiting to run (pending or suspended).
	IdleJobs() int
	// StartIdleJob starts the highest-priority idle job on an idle
	// machine, returning false when no job or no machine is
	// available.
	StartIdleJob() (sched.JobID, bool)
	// ActiveJobs lists jobs that are running or suspended.
	ActiveJobs() []sched.JobID
	// LabelJob implements the Job Manager's labelJob(jobID, priority)
	// (§4.2): priorities order the idle queue.
	LabelJob(id sched.JobID, priority float64)
}

// Policy is a Scheduling Algorithm Policy: the three up-calls of §4.2.
type Policy interface {
	// Name identifies the policy ("pop", "bandit", ...).
	Name() string
	// AllocateJobs is triggered on detection of idle resources.
	AllocateJobs(ctx Context)
	// ApplicationStat is triggered for every reported statistic.
	ApplicationStat(ctx Context, ev sched.Event)
	// OnIterationFinish is triggered when a training iteration
	// finishes; the verdict directs the framework to continue,
	// suspend, or terminate the job.
	OnIterationFinish(ctx Context, ev sched.Event) sched.Decision
}

// FitCounter is implemented by policies that run learning-curve
// predictions. Engines read the counter to model prediction cost (the
// §5.2 "overlap training and prediction" trade-off); it is the same
// counter Instrument rebinds to hyperdrive_mcmc_fits_total, so the
// metric and the cost model share one source of truth.
type FitCounter interface {
	// Fits returns the live counter of curve fits performed so far.
	// Read it with Value(); a nil counter reads as zero.
	Fits() *obs.Counter
}

// Resolve walks p through its Unwrap chain (wrappers such as pause
// control or a timing probe embed the policy they serve), binding
// every layer's instrumentation to r when r is non-nil, and returns
// the first POP and the first FitCounter on the chain (nil when there
// is none). Engines call it once at setup.
func Resolve(p Policy, r *obs.Registry) (pop *POP, fits FitCounter) {
	for p != nil {
		if in, ok := p.(obs.Instrumentable); ok && r != nil {
			in.Instrument(r)
		}
		if q, ok := p.(*POP); ok && pop == nil {
			pop = q
		}
		if fc, ok := p.(FitCounter); ok && fits == nil {
			fits = fc
		}
		u, ok := p.(interface{ Unwrap() Policy })
		if !ok {
			break
		}
		p = u.Unwrap()
	}
	return pop, fits
}

// Factory builds a fresh policy instance for one experiment run;
// policies are stateful and must not be shared across runs.
type Factory func() (Policy, error)

// Registry maps policy names to factories.
type Registry struct {
	factories map[string]Factory
}

// NewRegistry returns a registry with the four built-in policies at
// their paper-default settings for the given workload info.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]Factory)}
	r.Register("default", func() (Policy, error) { return NewDefault(), nil })
	r.Register("bandit", func() (Policy, error) { return NewBandit(BanditOptions{}) })
	r.Register("earlyterm", func() (Policy, error) { return NewEarlyTerm(EarlyTermOptions{}) })
	r.Register("pop", func() (Policy, error) { return NewPOP(POPOptions{}) })
	r.Register("sha", func() (Policy, error) { return NewSuccessiveHalving(SHAOptions{}) })
	return r
}

// Register adds (or replaces) a factory.
func (r *Registry) Register(name string, f Factory) { r.factories[name] = f }

// New builds a fresh policy by name.
func (r *Registry) New(name string) (Policy, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, r.Names())
	}
	return f()
}

// Names lists registered policies, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// boundary resolves a policy's evaluation boundary: its configured
// value, else the workload default, else the §9 heuristic of roughly
// 5-10% of the max epoch ("we have found success with a heuristic of
// setting b to be between 5-10% of the max epoch for a job").
func boundary(configured int, info Info) int {
	if configured > 0 {
		return configured
	}
	if info.EvalBoundary > 0 {
		return info.EvalBoundary
	}
	b := info.MaxEpoch / 15
	if b < 1 {
		b = 1
	}
	return b
}

// greedyAllocate starts idle jobs while slots remain: the Default
// SAP's allocation, reused by every policy (§4.2 "provides a simple
// base for more advanced SAPs").
func greedyAllocate(ctx Context) {
	for ctx.IdleSlots() > 0 {
		if _, ok := ctx.StartIdleJob(); !ok {
			return
		}
	}
}
