package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/appstat"
	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/hypergen"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// Config describes one live experiment — what the paper's Experiment
// Runner client specifies (§4.2): the SAP, the hyperparameter
// generation technique, the model (workload) to train, and the total
// number of machines.
type Config struct {
	// Workload names the registered workload to train.
	Workload string
	// Registry resolves workloads; nil uses the built-ins.
	Registry *workload.Registry
	// Generator produces candidate configurations.
	Generator hypergen.Generator
	// Policy is a fresh SAP instance.
	Policy policy.Policy
	// Machines is the number of in-process slots; ignored when
	// Executor is set.
	Machines int
	// Executor overrides the in-process worker pool (used for remote
	// agents). It must have been built with the same Events channel.
	Executor Executor
	// Events must be provided together with Executor.
	Events chan Event
	// Slots, when non-nil, replaces the experiment's own
	// ResourceManager with an externally managed pool — typically a
	// fair-share lease carved out of a pool shared by many experiments
	// (hyperdrived). Requires Executor: a private worker pool has no
	// one to share with.
	Slots SlotPool
	// MaxJobs bounds how many configurations are explored.
	MaxJobs int
	// MaxDuration is Tmax on the experiment clock; 0 = 7 days.
	MaxDuration time.Duration
	// Clock drives training time; nil uses a 600x scaled clock (one
	// simulated minute per 100ms wall).
	Clock clock.Clock
	// StopAtTarget ends the run when the target metric is reached.
	StopAtTarget bool
	// TargetOverride replaces the workload's target when non-zero.
	TargetOverride float64
	// CheckpointMode picks the suspend capture model; 0 = Framework.
	CheckpointMode checkpoint.Mode
	// CheckpointSeed seeds the capture model.
	CheckpointSeed int64
	// Seed seeds per-job training non-determinism.
	Seed int64
	// StopCondition, when non-nil, is evaluated on every statistic;
	// returning true ends the experiment (the §9 "user-defined global
	// termination criteria" extension).
	StopCondition func(db *appstat.DB, info policy.Info) bool
	// Recorder, when non-nil, captures every job start and statistic
	// so the run can be exported as a replayable trace (the Trace
	// Generator's "collect from live system experiments" path, §7.1).
	Recorder *trace.Recorder
	// EventLog, when non-nil, receives one JSON record per scheduler
	// event and decision.
	EventLog *EventLog
	// Obs, when non-nil, receives runtime telemetry: decision-latency
	// and epoch-duration histograms, lifecycle counters, slot-pool
	// gauges, decision spans, and the live job classification table.
	// Policies and event logs implementing obs.Instrumentable are
	// bound to it at setup. Nil leaves every hook a no-op.
	Obs *obs.Registry
	// TraceSink, when non-nil, accumulates Chrome trace events for the
	// whole run — one track per job, one per agent, decision slices
	// with the policy's estimate inputs, and instant markers for
	// classification changes, agent failures, and job re-placements —
	// exported with obs.(*TraceWriter).WriteFile after Run returns.
	TraceSink *obs.TraceWriter
	// TraceParent, when valid, is an upstream span (e.g. hyperdrived's
	// api_submit) every job joins: jobs share its trace ID and their
	// first start parents under its span, so an inbound API trace spans
	// submission through every scheduler decision. Invalid (the zero
	// value) keeps the default of one fresh trace per job.
	TraceParent obs.SpanContext
}

// JobSummary is one job's final record.
type JobSummary struct {
	ID         sched.JobID
	Epochs     int
	BusyTime   time.Duration
	FinalState sched.State
	Best       float64
}

// Result summarizes a live experiment.
type Result struct {
	Reached      bool
	TimeToTarget time.Duration
	Duration     time.Duration
	Best         float64
	BestJob      sched.JobID
	Jobs         []JobSummary
	Suspends     int
	Terminations int
	Completions  int
	Starts       int
	Resumes      int
	Fits         int
	// Fault-tolerance counters: agent-down declarations, successful
	// reconnects, and snapshot-bearing jobs re-queued after losing
	// their agent (checkpoint-based re-placement).
	AgentFailures int
	Reconnects    int
	Replacements  int
	Overheads     checkpoint.Accounting // suspend latency/size observations
	StoppedBy     string                // "target" | "budget" | "exhausted" | "condition" | "canceled"
}

// Experiment is a live HyperDrive run.
type Experiment struct {
	cfg      Config
	spec     workload.Spec
	info     policy.Info
	clk      clock.Clock
	db       *appstat.DB
	rm       SlotPool
	jm       *JobManager
	exec     Executor
	events   chan Event
	ownExec  bool
	start    time.Time
	created  int
	genDone  bool
	res      *Result
	slotJobs map[SlotID]sched.JobID
	met      *expMetrics
	// classes publishes the job table after evaluated decisions (nil
	// without a registry).
	classes *obs.ClassTable
	// why is the rationale handed to every OnIterationFinish, reused so
	// decisions do not allocate.
	why sched.Rationale
	// qual is the registry's quality audit (nil unless the caller
	// enabled it), cached so the hot paths pay one nil check, and
	// reachEpoch the first epoch each job crossed the target — the
	// outcome-side ground truth for calibration joins.
	qual       *obs.QualityAudit
	reachEpoch map[sched.JobID]int
	// pop and fits are the POP/fit-counting views of cfg.Policy,
	// resolved once at New by policy.Resolve (embedding layers wrap
	// policies for pause control); nil when the policy has neither.
	pop       *policy.POP
	fits      policy.FitCounter
	closeOnce sync.Once
}

// Close releases the experiment's private resources: a privately
// built worker pool is shut down and the event log drained. It is
// idempotent and safe whether or not Run was called — the path an
// embedding service takes when a submitted experiment is torn down
// before (or after) running. Shared executors, event channels, and
// slot leases belong to the caller and are left untouched.
func (e *Experiment) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.ownExec {
			err = e.exec.Close()
		}
		e.cfg.EventLog.Flush()
	})
	return err
}

// New validates the config and prepares an experiment.
func New(cfg Config) (*Experiment, error) {
	if cfg.Generator == nil {
		return nil, errors.New("cluster: nil generator")
	}
	if cfg.Policy == nil {
		return nil, errors.New("cluster: nil policy")
	}
	if cfg.MaxJobs < 1 {
		return nil, fmt.Errorf("cluster: MaxJobs %d must be positive", cfg.MaxJobs)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = workload.NewRegistry()
	}
	spec, err := reg.Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewScaled(time.Now(), 600)
	}
	if cfg.MaxDuration == 0 {
		cfg.MaxDuration = 7 * 24 * time.Hour
	}

	e := &Experiment{
		cfg:      cfg,
		spec:     spec,
		clk:      clk,
		db:       appstat.NewDB(),
		jm:       NewJobManager(),
		res:      &Result{},
		slotJobs: make(map[SlotID]sched.JobID),
		met:      newExpMetrics(cfg.Obs),
	}
	e.pop, e.fits = policy.Resolve(cfg.Policy, cfg.Obs)
	if cfg.Obs != nil {
		cfg.EventLog.Instrument(cfg.Obs)
		e.qual = cfg.Obs.Quality()
		e.reachEpoch = make(map[sched.JobID]int)
		e.classes = obs.NewClassTable(cfg.Obs, e.qual)
	}

	if cfg.Slots != nil && cfg.Executor == nil {
		return nil, errors.New("cluster: Slots requires a shared Executor")
	}
	if cfg.Executor != nil {
		if cfg.Events == nil {
			return nil, errors.New("cluster: Executor requires the shared Events channel")
		}
		e.exec = cfg.Executor
		e.events = cfg.Events
	} else {
		if cfg.Machines < 1 {
			return nil, fmt.Errorf("cluster: Machines %d must be positive", cfg.Machines)
		}
		mode := cfg.CheckpointMode
		if mode == 0 {
			mode = checkpoint.Framework
		}
		capturer, err := checkpoint.NewCapturer(mode, cfg.CheckpointSeed+1)
		if err != nil {
			return nil, err
		}
		e.events = make(chan Event, 256)
		pool, err := NewWorkerPool(cfg.Machines, reg, clk, capturer, e.events)
		if err != nil {
			return nil, err
		}
		e.exec = pool
		e.ownExec = true
	}

	if cfg.Slots != nil {
		e.rm = cfg.Slots
	} else {
		e.rm = NewResourceManager(e.exec.Slots())
	}
	e.met.primeSlotGauges(e.exec.Slots())

	lo, hi := spec.MetricRange()
	target := spec.Target()
	if cfg.TargetOverride != 0 {
		target = cfg.TargetOverride
	}
	e.info = policy.Info{
		Workload:      spec.Name(),
		Target:        target,
		KillThreshold: spec.KillThreshold(),
		RandomFloor:   spec.RandomFloor(),
		EvalBoundary:  spec.EvalBoundary(),
		MaxEpoch:      spec.MaxEpoch(),
		MetricMin:     lo,
		MetricMax:     hi,
		Reward:        spec.Metric() == workload.Reward,
		TotalSlots:    e.rm.Total(),
		MaxDuration:   cfg.MaxDuration,
	}
	e.qual.SetMeta(obs.QualityMeta{
		Workload: e.info.Workload,
		Policy:   cfg.Policy.Name(),
		Target:   e.info.Normalize(e.info.Target),
		Machines: e.rm.Total(),
		MaxEpoch: e.info.MaxEpoch,
		Source:   "cluster",
	})
	return e, nil
}

// Run executes the experiment to completion (or ctx cancellation) and
// returns its result.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	e.start = e.clk.Now()
	defer func() {
		if e.ownExec {
			e.exec.Close()
		}
	}()

	deadline := e.clk.After(e.cfg.MaxDuration)
	e.cfg.Policy.AllocateJobs(e)
	e.refreshGauges()
	if e.rm.BusyCount() == 0 && e.jm.SuspendedCount() == 0 && e.created == 0 {
		// On a leased pool an empty first allocation just means the
		// fair share is currently zero; capacity arrives later via
		// EvWake. A private pool has no such future, so it is an error.
		if e.cfg.Slots == nil {
			return nil, errors.New("cluster: policy started no jobs (empty generator?)")
		}
	}

	for {
		if e.done() {
			e.res.StoppedBy = "exhausted"
			break
		}
		var stop bool
		select {
		case <-ctx.Done():
			e.res.StoppedBy = "canceled"
			stop = true
		case <-deadline:
			e.res.StoppedBy = "budget"
			stop = true
		case ev := <-e.events:
			stop = e.handle(ev)
		}
		if stop {
			break
		}
	}
	e.drain()
	e.finish()
	return e.res, nil
}

// drainTimeout bounds how long a stopping experiment waits (wall
// clock) for its in-flight jobs to acknowledge termination before
// force-releasing their slots back to a shared pool.
const drainTimeout = 5 * time.Second

// drain runs after the event loop breaks, when the executor is shared
// (service mode): the experiment no longer consumes events, but its
// jobs are still training on slots other tenants are waiting for, and
// any EvIterDone already queued holds a reply channel whose
// executor-side goroutine blocks until answered. Ask the executor to
// stop every bound job, then consume events — answering Terminate to
// decision requests, releasing slots as exits land — until the
// experiment holds nothing or the wall-clock budget expires (then
// force-release, so a wedged agent cannot leak shared capacity).
//
// Private executors (ownExec) skip this: Run's deferred Close tears
// the whole pool down and nobody else shares the slot accounting.
func (e *Experiment) drain() {
	if e.ownExec {
		return
	}
	stopper, _ := e.exec.(JobStopper)
	if stopper != nil {
		for slot, job := range e.slotJobs {
			_ = stopper.StopJob(job, slot)
		}
	}
	timeout := time.After(drainTimeout)
	for len(e.slotJobs) > 0 {
		select {
		case ev := <-e.events:
			e.drainEvent(ev)
		case <-timeout:
			for slot, job := range e.slotJobs {
				if mj, ok := e.jm.Get(job); ok {
					_ = mj.Job.Terminate()
				}
				delete(e.slotJobs, slot)
				_ = e.rm.ReleaseMachine(slot)
			}
		}
	}
	e.refreshGauges()
}

// drainEvent is the shutdown-mode event handler: no policy calls, no
// new placements — just unblock reply channels and give slots back.
func (e *Experiment) drainEvent(ev Event) {
	switch ev.Kind {
	case EvIterDone:
		if ev.Reply != nil {
			ev.Reply <- DecisionReply{Decision: sched.Terminate}
		}
	case EvExited:
		if mj, ok := e.jm.Get(ev.Job); ok {
			switch ev.Reason {
			case ExitCompleted:
				_ = mj.Job.Complete()
			case ExitSuspended:
				_ = mj.Job.Suspend()
			case ExitTerminated, ExitError, ExitLost:
				_ = mj.Job.Terminate()
			}
		}
		e.logEvent(string(ev.Reason), ev)
		if slot := ev.Slot; slot != "" && e.slotJobs[slot] == ev.Job {
			delete(e.slotJobs, slot)
			_ = e.rm.ReleaseMachine(slot)
		}
	case EvAgentDown:
		e.rm.MarkOffline(ev.AgentSlots)
	case EvAgentUp:
		e.rm.MarkOnline(ev.AgentSlots)
	case EvStat, EvSnapshot, EvAgentError, EvWake:
		// No decisions are made while draining; late statistics and
		// wake-ups have nothing left to schedule.
	}
}

// done reports whether no work remains: nothing running, nothing
// suspended, and the generator cannot supply more. Quarantined slots
// are not "work": an experiment with every survivor idle must not
// hang waiting for a dead agent's slots to come back.
func (e *Experiment) done() bool {
	if e.rm.BusyCount() > 0 {
		return false
	}
	if e.jm.SuspendedCount() > 0 {
		return false
	}
	return e.genDone || e.created >= e.cfg.MaxJobs
}

// handle processes one executor event; returns true to stop.
func (e *Experiment) handle(ev Event) bool {
	switch ev.Kind {
	case EvStat:
		return e.handleStat(ev)
	case EvIterDone:
		e.handleIterDone(ev)
	case EvSnapshot:
		if mj, ok := e.jm.Get(ev.Job); ok {
			mj.Snapshot = ev.Snapshot
			mj.SnapEpoch = ev.Epoch
		}
		e.db.PutSnapshot(appstat.Snapshot{Job: ev.Job, Epoch: ev.Epoch, Data: ev.Snapshot, At: e.clk.Now()})
		e.res.Overheads.Observe(checkpoint.Record{Size: ev.SnapSize, Latency: ev.SnapLat})
	case EvExited:
		e.handleExited(ev)
	case EvAgentDown:
		e.handleAgentDown(ev)
	case EvAgentUp:
		e.handleAgentUp(ev)
	case EvAgentError:
		e.logEvent("agent_error", ev)
	case EvWake:
		// Capacity may have appeared in a shared pool (another tenant
		// released slots); give the SAP a chance to claim it.
		e.cfg.Policy.AllocateJobs(e)
		e.refreshGauges()
	}
	return false
}

// handleAgentDown quarantines a dead agent's slots. It arrives before
// that failure's per-job ExitLost events (the AgentClient guarantees
// the ordering), so by the time job-loss handling releases each slot,
// ReleaseMachine parks it in quarantine instead of the idle pool.
func (e *Experiment) handleAgentDown(ev Event) {
	e.rm.MarkOffline(ev.AgentSlots)
	e.res.AgentFailures++
	e.met.agentFailures.Inc()
	e.logEvent("agent_down", ev)
	e.cfg.TraceSink.Instant("scheduler", "agent "+ev.Agent, "agent down", e.clk.Now(),
		map[string]interface{}{"slots": len(ev.AgentSlots)})
	e.refreshGauges()
}

// handleAgentUp restores a reconnected agent's slots and immediately
// lets the SAP re-fill the recovered capacity.
func (e *Experiment) handleAgentUp(ev Event) {
	e.rm.MarkOnline(ev.AgentSlots)
	e.res.Reconnects++
	e.logEvent("agent_up", ev)
	e.cfg.TraceSink.Instant("scheduler", "agent "+ev.Agent, "agent reconnected", e.clk.Now(),
		map[string]interface{}{"slots": len(ev.AgentSlots)})
	e.cfg.Policy.AllocateJobs(e)
	e.refreshGauges()
}

func (e *Experiment) handleStat(ev Event) bool {
	e.db.Report(ev.Job, appstat.Stat{Epoch: ev.Epoch, Metric: ev.Metric, Duration: ev.Duration, At: e.clk.Now()})
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.Observe(string(ev.Job), ev.Epoch, ev.Metric, ev.Duration)
	}
	e.met.observeEpoch(ev.Slot, ev.Duration)
	e.logEvent("stat", ev)
	if mj, ok := e.jm.Get(ev.Job); ok {
		mj.Job.SetEpoch(ev.Epoch)
		mj.Busy += int64(ev.Duration)
		if !mj.HasBest || ev.Metric > mj.Best {
			mj.Best = ev.Metric
			mj.HasBest = true
		}
	}
	sev := sched.Event{Job: ev.Job, Epoch: ev.Epoch, Metric: ev.Metric, Duration: ev.Duration, Time: e.clk.Now()}
	e.cfg.Policy.ApplicationStat(e, sev)
	if e.pop != nil {
		e.pop.ObserveBest(e.info, ev.Metric)
	}

	if ev.Metric > e.res.Best || e.res.BestJob == "" {
		e.res.Best = ev.Metric
		e.res.BestJob = ev.Job
		e.met.best.Set(ev.Metric)
		e.qual.RecordBest(e.clk.Now(), string(ev.Job), e.info.Normalize(ev.Metric))
	}
	if e.qual != nil && ev.Metric >= e.info.Target {
		if _, seen := e.reachEpoch[ev.Job]; !seen {
			e.reachEpoch[ev.Job] = ev.Epoch
		}
	}
	if e.cfg.StopAtTarget && ev.Metric >= e.info.Target && !e.res.Reached {
		e.res.Reached = true
		e.res.TimeToTarget = e.clk.Since(e.start)
		e.res.StoppedBy = "target"
		return true
	}
	if e.cfg.StopCondition != nil && e.cfg.StopCondition(e.db, e.info) {
		e.res.StoppedBy = "condition"
		return true
	}
	return false
}

// handleIterDone runs one OnIterationFinish round trip. The policy
// fills in the experiment's reused rationale; a decision the policy
// evaluated, or any verdict other than continue, is retained as a
// decision span whose ID is stamped into the decision LogRecord, and
// the wall-clock latency of every decision lands in the
// decision-latency histogram. Off-boundary continues (nearly all
// decisions) are counted and logged without a span, so the hot path
// stays allocation-free.
func (e *Experiment) handleIterDone(ev Event) {
	why := &e.why
	*why = sched.Rationale{}
	sev := sched.Event{Job: ev.Job, Epoch: ev.Epoch, Time: e.clk.Now(), Rationale: why}
	t0 := time.Now()
	decision := e.cfg.Policy.OnIterationFinish(e, sev)
	lat := time.Since(t0)
	e.met.decisionLatency.Observe(lat.Seconds())
	e.met.decisionCounter(decision).Inc()
	var (
		sp     *obs.Span
		spanID string
	)
	// Verdicts that change a job's fate (suspend/terminate) are retained
	// even unevaluated, so the trace always explains why a job left its
	// slot.
	if why.Evaluated || decision != sched.Continue {
		// Parent the decision span under the executor-side span that
		// raised the boundary; when the executor runs untraced, the span
		// still joins the job's trace as a root so the verdict stays
		// attributable.
		parent := ev.Trace
		mj, haveJob := e.jm.Get(ev.Job)
		if !parent.Valid() && haveJob {
			parent = obs.SpanContext{TraceID: mj.TraceID}
		}
		sp = e.met.tracer.RecordDecision(string(ev.Job), ev.Epoch, parent, lat, why, decision)
		spanID = sp.ID()
		if haveJob {
			mj.LastSpan = spanID
		}
		e.emitDecisionTrace(ev, why, decision, sp, lat)
		e.qual.ObserveDecision(e.clk.Now(), string(ev.Job), ev.Epoch, why, decision)
	}
	e.logDecision(ev.Job, ev.Epoch, why, decision, spanID)
	if why.Evaluated {
		e.publishClassification()
	}
	if ev.Reply != nil {
		ev.Reply <- DecisionReply{Decision: decision, Trace: sp.Context()}
	}
}

// emitDecisionTrace records one retained decision as a complete slice
// on the scheduler's "decisions" track, carrying the policy's
// rationale (ERT, confidence, classification, pool sizes).
func (e *Experiment) emitDecisionTrace(ev Event, why *sched.Rationale, d sched.Decision, sp *obs.Span, lat time.Duration) {
	if e.cfg.TraceSink == nil {
		return
	}
	args := obs.DecisionArgs(why, d)
	args["job"], args["epoch"] = string(ev.Job), ev.Epoch
	// The span ID matches the event log's "span" field and
	// /debug/obs/spans; the trace ID groups the slice with the job's
	// track.
	args["span"], args["trace"] = sp.ID(), sp.TraceID()
	end := e.clk.Now()
	e.cfg.TraceSink.Complete("scheduler", "decisions", "decision "+string(ev.Job), end.Add(-lat), lat, args)
}

func (e *Experiment) handleExited(ev Event) {
	mj, ok := e.jm.Get(ev.Job)
	if !ok {
		return
	}
	e.logEvent(string(ev.Reason), ev)
	switch ev.Reason {
	case ExitCompleted:
		if err := mj.Job.Complete(); err == nil {
			e.res.Completions++
			e.met.completions.Inc()
			best := mj.Best
			e.cfg.Generator.ReportFinalPerformance(string(ev.Job), best)
		}
	case ExitTerminated:
		if err := mj.Job.Terminate(); err == nil {
			e.res.Terminations++
			e.met.terminations.Inc()
		}
	case ExitSuspended:
		if err := mj.Job.Suspend(); err == nil {
			e.res.Suspends++
			e.met.suspends.Inc()
			e.jm.Requeue(ev.Job)
		}
	case ExitError:
		// Treat like termination but keep the error visible via state.
		if err := mj.Job.Terminate(); err == nil {
			e.res.Terminations++
			e.met.terminations.Inc()
		}
	case ExitLost:
		// Checkpoint-based re-placement: a job that vanished with its
		// agent but left a snapshot is suspended and re-queued, so the
		// SAP resumes it on a healthy slot. Without a snapshot there is
		// nothing to resume from — terminate.
		if len(mj.Snapshot) > 0 {
			if err := mj.Job.Suspend(); err == nil {
				e.res.Replacements++
				e.met.replacements.Inc()
				e.jm.Requeue(ev.Job)
				e.logLifecycle("replace", ev.Job, ev.Slot, "")
				e.cfg.TraceSink.Instant("scheduler", "job "+string(ev.Job), "re-placed", e.clk.Now(),
					map[string]interface{}{"lost_slot": string(ev.Slot), "snapshot_epoch": mj.SnapEpoch})
			}
		} else if err := mj.Job.Terminate(); err == nil {
			e.res.Terminations++
			e.met.terminations.Inc()
		}
	}
	// Close the job's run slice on the trace; terminal jobs also release
	// their pinned flight-recorder spans into the global ring.
	e.cfg.TraceSink.End("scheduler", "job "+string(ev.Job), e.clk.Now())
	switch mj.Job.State() {
	case sched.Completed, sched.Terminated:
		e.cfg.Obs.Flight().JobDone(string(ev.Job))
	default:
		// Suspended (or still-running) jobs keep their flight-recorder
		// span pinned; it is released when they reach a terminal state.
	}
	// Free the slot and let the SAP refill it.
	if slot := ev.Slot; slot != "" {
		if e.slotJobs[slot] == ev.Job {
			delete(e.slotJobs, slot)
			if err := e.rm.ReleaseMachine(slot); err == nil {
				e.cfg.Policy.AllocateJobs(e)
			}
		}
	}
	e.refreshGauges()
}

// finish fills the result.
func (e *Experiment) finish() {
	e.res.Duration = e.clk.Since(e.start)
	// The terminal record must not be a casualty of the drop-not-block
	// buffer: a cancel storm can leave the flusher a full buffer
	// behind, and the "stop" line is what replay tools key off. LogSync
	// waits for space instead of dropping.
	e.cfg.EventLog.LogSync(LogRecord{T: e.clk.Now(), Kind: "stop", Detail: e.res.StoppedBy})
	// The event log batches appends; drain it so callers reading the
	// sink after Run returns see every record.
	e.cfg.EventLog.Flush()
	jobs := e.jm.All()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Idx < jobs[j].Idx })
	for _, mj := range jobs {
		e.res.Jobs = append(e.res.Jobs, JobSummary{
			ID:         mj.Job.ID,
			Epochs:     mj.Job.Epoch(),
			BusyTime:   time.Duration(mj.Busy),
			FinalState: mj.Job.State(),
			Best:       mj.Best,
		})
		if e.qual != nil {
			re, reached := e.reachEpoch[mj.Job.ID]
			e.qual.RecordOutcome(obs.OutcomeRecord{
				Job:        string(mj.Job.ID),
				FinalState: mj.Job.State().String(),
				Epochs:     mj.Job.Epoch(),
				Best:       e.info.Normalize(mj.Best),
				Reached:    reached,
				ReachEpoch: re,
			})
		}
	}
	if e.fits != nil {
		e.res.Fits = int(e.fits.Fits().Value())
	}
}

// --- policy.Context implementation -----------------------------------

// Info implements policy.Context.
func (e *Experiment) Info() policy.Info { return e.info }

// DB implements policy.Context.
func (e *Experiment) DB() *appstat.DB { return e.db }

// Now implements policy.Context.
func (e *Experiment) Now() time.Time { return e.clk.Now() }

// Start implements policy.Context.
func (e *Experiment) Start() time.Time { return e.start }

// IdleSlots implements policy.Context.
func (e *Experiment) IdleSlots() int { return e.rm.IdleCount() }

// IdleJobs implements policy.Context: suspended jobs plus the
// configurations the generator can still produce.
func (e *Experiment) IdleJobs() int {
	n := e.jm.SuspendedCount()
	if !e.genDone && e.created < e.cfg.MaxJobs {
		n += e.cfg.MaxJobs - e.created
	}
	return n
}

// StartIdleJob implements policy.Context: picks between the best
// suspended job and a fresh configuration (suspended priorities win;
// FIFO otherwise) and starts it on a reserved slot. It reserves a slot
// only once it knows there is a job to start: on a shared pool every
// release wakes the other tenants, so a reserve-then-release with
// nothing to run would keep idle experiments waking each other.
func (e *Experiment) StartIdleJob() (sched.JobID, bool) {
	suspended, haveSuspended := e.jm.GetIdleJob()
	// Suspended jobs with explicit priority preempt fresh configs;
	// unlabelled suspended jobs wait behind the fresh configurations
	// still in the generator (FIFO by queue-insertion order: fresh
	// configs were "queued" at experiment start, a suspended job
	// re-enters at the back).
	canCreate := !e.genDone && e.created < e.cfg.MaxJobs
	resume := haveSuspended && (suspended.Job.Priority() > 0 || !canCreate)
	if !resume && !canCreate {
		return "", false
	}
	slot, ok := e.rm.ReserveIdleMachine()
	if !ok {
		return "", false
	}
	release := func() {
		if err := e.rm.ReleaseMachine(slot); err != nil {
			// Unreachable: we just reserved it.
			panic(err)
		}
	}
	if resume {
		if err := e.startExisting(suspended, slot); err == nil {
			return suspended.Job.ID, true
		}
		release()
		return "", false
	}
	id, cfg9, err := e.cfg.Generator.CreateJob()
	if err != nil {
		e.genDone = true
		release()
		return "", false
	}
	e.created++
	mj, err := e.jm.Add(sched.JobID(id), cfg9, e.cfg.Seed+int64(e.created), e.info.MaxEpoch)
	if err != nil {
		release()
		return "", false
	}
	// One trace per job, for its whole life across suspends, resumes,
	// and re-placements ("" when tracing is off) — unless an upstream
	// trace was handed in, in which case every job joins it and the
	// first start parents under the upstream span.
	if e.cfg.TraceParent.Valid() {
		mj.TraceID = e.cfg.TraceParent.TraceID
		mj.LastSpan = e.cfg.TraceParent.SpanID
	} else {
		mj.TraceID = e.met.tracer.NewTraceID()
	}
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.StartJob(id, cfg9, mj.Seed)
	}
	if err := e.startExisting(mj, slot); err != nil {
		release()
		return "", false
	}
	e.res.Starts++
	return mj.Job.ID, true
}

// startExisting launches a managed job (fresh or suspended) on a slot.
func (e *Experiment) startExisting(mj *ManagedJob, slot SlotID) error {
	resume := mj.Job.State() == sched.Suspended
	if err := mj.Job.Start(sched.MachineID(slot)); err != nil {
		return err
	}
	spec := StartSpec{
		Job:      mj.Job.ID,
		Slot:     slot,
		Workload: e.info.Workload,
		Config:   mj.Config,
		Seed:     mj.Seed,
		MaxEpoch: e.info.MaxEpoch,
		// The executor's work is a child of the scheduler span that
		// caused this placement (the suspend/re-place decision, or a
		// trace root on first start).
		Trace: obs.SpanContext{TraceID: mj.TraceID, SpanID: mj.LastSpan},
	}
	if resume {
		spec.Snapshot = mj.Snapshot
		// A job re-placed after agent loss may have trained past its
		// last snapshot; rewind the epoch counter to the checkpoint.
		if mj.SnapEpoch > 0 && e.db.LastEpoch(mj.Job.ID) > mj.SnapEpoch {
			mj.Job.SetEpoch(mj.SnapEpoch)
		}
	}
	if err := e.exec.Start(spec); err != nil {
		// Roll the job back to a restartable state.
		if resume {
			_ = mj.Job.Suspend()
		} else {
			_ = mj.Job.Terminate()
		}
		return err
	}
	kind := "start"
	if resume {
		e.res.Resumes++
		e.met.resumes.Inc()
		kind = "resume"
	} else {
		e.met.starts.Inc()
	}
	e.logLifecycle(kind, mj.Job.ID, slot, "")
	e.cfg.Obs.Flight().JobLive(string(mj.Job.ID))
	e.cfg.TraceSink.Begin("scheduler", "job "+string(mj.Job.ID), kind+" on "+string(slot), e.clk.Now(),
		map[string]interface{}{"slot": string(slot), "trace": mj.TraceID, "epoch": mj.Job.Epoch()})
	e.slotJobs[slot] = mj.Job.ID
	return nil
}

// ActiveJobs implements policy.Context.
func (e *Experiment) ActiveJobs() []sched.JobID {
	ids := e.jm.Active()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// JobEpoch implements policy.Context.
func (e *Experiment) JobEpoch(id sched.JobID) int {
	if mj, ok := e.jm.Get(id); ok {
		return mj.Job.Epoch()
	}
	return 0
}

// LabelJob implements policy.Context.
func (e *Experiment) LabelJob(id sched.JobID, priority float64) {
	e.jm.LabelJob(id, priority)
}

// TerminateIdleJob implements policy.Context: terminates a suspended
// job without involving an executor (it holds no slot).
func (e *Experiment) TerminateIdleJob(id sched.JobID) bool {
	mj, ok := e.jm.Get(id)
	if !ok || mj.Job.State() != sched.Suspended {
		return false
	}
	if err := mj.Job.Terminate(); err != nil {
		return false
	}
	e.res.Terminations++
	return true
}

var _ policy.Context = (*Experiment)(nil)
