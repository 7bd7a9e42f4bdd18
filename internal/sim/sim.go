// Package sim implements the trace-driven discrete-event simulator of
// the paper's sensitivity analysis (§7.1): a Simulator Engine that
// accurately emulates HyperDrive's execution — configuration ordering,
// resource management, suspend/resume, and early termination — driving
// the *same* pluggable scheduling policies as the live runtime
// (internal/policy), fed by replayable traces (internal/trace).
//
// The engine models time explicitly: each machine advances job epochs
// whose durations come from the trace; optional models add prediction
// cost (the §5.2 overlap-training-and-prediction trade-off) and
// suspend latency (internal/checkpoint).
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/appstat"
	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
)

// Options configures one simulated experiment.
type Options struct {
	// Trace is the workload to replay (required).
	Trace *trace.Trace
	// Machines is S, the number of slots.
	Machines int
	// Policy is a fresh policy instance (required; policies are
	// stateful and must not be reused across runs).
	Policy policy.Policy
	// MaxDuration is Tmax; 0 defaults to 7 days.
	MaxDuration time.Duration
	// StopAtTarget ends the experiment the moment any job reports a
	// metric at or above the trace target (the paper's
	// time-to-target measurements).
	StopAtTarget bool
	// PredictionCost is the modeled wall time of one learning-curve
	// fit. When OverlapPrediction is false the cost delays the
	// machine that triggered the fit (blocking prediction); when
	// true prediction runs alongside training and costs nothing
	// (§5.2).
	PredictionCost    time.Duration
	OverlapPrediction bool
	// Checkpointer models suspend latency; nil makes suspends free.
	Checkpointer *checkpoint.Capturer
	// CheckpointAccounting, when non-nil, records every suspend.
	CheckpointAccounting *checkpoint.Accounting
	// TrackAllocation samples POP's promising/active ratio at every
	// boundary decision (Figure 4c).
	TrackAllocation bool
	// MaxJobs caps how many trace jobs are explored (0 = all).
	MaxJobs int
	// PlanTarget overrides the trace's target in the policy-visible
	// Info (what POP plans toward); 0 keeps the trace target.
	PlanTarget float64
	// StopMetric overrides the StopAtTarget threshold; 0 uses the
	// policy-visible target. Separating the two lets experiments ask
	// "how long until the true best is found" while the policy plans
	// toward a softer goal (the §9 dynamic-target study).
	StopMetric float64
	// Obs, when non-nil, receives the same telemetry the live engine
	// records (decision latency, lifecycle counters, pool gauges,
	// decision spans, job table), making sim and real-runtime
	// dashboards directly comparable. Nil keeps the event loop
	// uninstrumented.
	Obs *obs.Registry
	// TraceSink, when non-nil, receives Chrome trace events for the
	// run: one track per machine carrying the job-occupancy Gantt,
	// plus decision slices and classification-change markers. All
	// timestamps come from the virtual clock (simEpoch + simulated
	// time), never the host clock, so the export is bit-identical
	// across runs and hosts.
	TraceSink *obs.TraceWriter
	// Quality, when non-nil, receives the search-quality audit trail:
	// oracle ground truth derived from the trace curves, every
	// boundary decision's prediction (confidence, ERT, credible band,
	// pool verdict), best-metric samples, pool occupancy, and final
	// outcomes. Like TraceSink, all timestamps are virtual, so the
	// audit's serialized log is byte-identical across runs and hosts.
	// When nil but Obs has a quality audit enabled, that audit is
	// used.
	Quality *obs.QualityAudit
}

// RatioPoint samples the exploitation share over time (Figure 4c).
type RatioPoint struct {
	T        time.Duration
	Ratio    float64
	Active   int
	Promised int
}

// Segment is one contiguous stretch of a job occupying a machine,
// from resume/start to suspend/terminate/complete — the Gantt data
// behind utilization analysis.
type Segment struct {
	Job     string
	Machine int
	Start   time.Duration
	End     time.Duration
}

// JobOutcome describes how a job ended.
type JobOutcome struct {
	ID         string
	Epochs     int
	BusyTime   time.Duration // total training time consumed (Figure 6)
	FinalState sched.State
	Best       float64
}

// Result is the outcome of one simulated experiment.
type Result struct {
	Reached      bool
	TimeToTarget time.Duration
	Duration     time.Duration // total simulated experiment time
	Best         float64
	BestJob      string
	Jobs         []JobOutcome
	Suspends     int
	Terminations int
	Completions  int
	Starts       int
	Fits         int
	Ratios       []RatioPoint
	Segments     []Segment // machine occupancy timeline
}

// Utilization returns the fraction of machine-time spent training
// (sum of segment lengths over machines x experiment duration).
func (r *Result) Utilization(machines int) float64 {
	if machines <= 0 || r.Duration <= 0 {
		return 0
	}
	var busy time.Duration
	for _, s := range r.Segments {
		busy += s.End - s.Start
	}
	return float64(busy) / (float64(machines) * float64(r.Duration))
}

// JobDurations returns every job's busy time in hours (Figure 6).
func (r *Result) JobDurations() []float64 {
	out := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.Epochs > 0 {
			out = append(out, j.BusyTime.Hours())
		}
	}
	return out
}

// simJob is the engine's record of one trace job: the kernel's job
// (state, completed epochs, priority) plus what only the replay needs.
type simJob struct {
	*sched.Job
	samples  []trace.Sample
	busy     time.Duration
	best     float64
	segStart time.Duration // current occupancy segment start
	machine  int
}

// event is a machine finishing an epoch (or becoming free after
// overhead) at time t.
type event struct {
	t       time.Duration
	machine int
	job     *simJob
	seq     int // tiebreaker for determinism
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// engine is the running simulation state; it implements
// policy.Context.
type engine struct {
	opts  Options
	info  policy.Info
	db    *appstat.DB
	now   time.Duration
	start time.Time
	// book holds every trace job in trace order; next is the trace
	// cursor, the index of the first job never started.
	book    *sched.Book[*simJob]
	next    int
	running map[int]*simJob
	freeM   []int                 // idle machines
	availAt map[int]time.Duration // per-machine earliest next start (suspend/prediction overhead)
	events  eventHeap
	seq     int
	res     *Result
	lastFit int
	stopAt  float64
	met     *simMetrics
	qual    *obs.QualityAudit
	// classes publishes the job table after evaluated decisions (nil
	// without a registry).
	classes *obs.ClassTable
	// pop and fits are the POP/fit-counting views of the policy,
	// resolved once by policy.Resolve; nil when it has neither.
	pop  *policy.POP
	fits policy.FitCounter
	// why is the rationale handed to every instrumented decision,
	// reused so decisions do not allocate.
	why sched.Rationale
}

var simEpoch = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)

// Run simulates one experiment to completion.
func Run(opts Options) (*Result, error) {
	if opts.Trace == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := opts.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if opts.Machines < 1 {
		return nil, fmt.Errorf("sim: need at least one machine, got %d", opts.Machines)
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if opts.MaxDuration == 0 {
		opts.MaxDuration = 7 * 24 * time.Hour
	}
	if (opts.TraceSink != nil || opts.Quality != nil) && opts.Obs == nil {
		// Decision slices, classification markers, and quality
		// predictions all ride on the registry's tracer; give the run a
		// private one when the caller asked for either without
		// instrumenting.
		opts.Obs = obs.NewRegistry()
	}

	tr := opts.Trace
	e := &engine{
		opts:    opts,
		db:      appstat.NewDB(),
		start:   simEpoch,
		book:    sched.NewBook[*simJob](),
		running: make(map[int]*simJob),
		res:     &Result{},
		info: policy.Info{
			Workload:      tr.Workload,
			Target:        tr.Target,
			KillThreshold: tr.KillThreshold,
			RandomFloor:   tr.RandomFloor,
			EvalBoundary:  tr.EvalBoundary,
			MaxEpoch:      tr.MaxEpoch,
			MetricMin:     tr.MetricMin,
			MetricMax:     tr.MetricMax,
			Reward:        tr.MetricMin < 0, // reward scales extend below zero
			TotalSlots:    opts.Machines,
			MaxDuration:   opts.MaxDuration,
		},
	}

	if opts.PlanTarget != 0 {
		e.info.Target = opts.PlanTarget
	}
	e.pop, e.fits = policy.Resolve(opts.Policy, opts.Obs)
	e.met = newSimMetrics(opts.Obs, e.fits, opts.PredictionCost)
	e.stopAt = e.info.Target
	if opts.StopMetric != 0 {
		e.stopAt = opts.StopMetric
	}

	nJobs := len(tr.Jobs)
	if opts.MaxJobs > 0 && opts.MaxJobs < nJobs {
		nJobs = opts.MaxJobs
	}
	for _, tj := range tr.Jobs[:nJobs] {
		sj := &simJob{
			Job:     sched.NewJob(sched.JobID(tj.ID), tj.Config, tj.Seed, len(tj.Samples)),
			samples: tj.Samples,
		}
		if err := e.book.Add(sj); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	e.availAt = make(map[int]time.Duration, opts.Machines)
	for m := 0; m < opts.Machines; m++ {
		e.freeM = append(e.freeM, m)
	}
	e.qual = opts.Quality
	if e.qual == nil && opts.Obs != nil {
		e.qual = opts.Obs.Quality()
	}
	if opts.Obs != nil {
		e.classes = obs.NewClassTable(opts.Obs, e.qual)
	}
	e.setupQuality()

	e.run()
	return e.res, nil
}

// run executes the event loop.
func (e *engine) run() {
	e.opts.Policy.AllocateJobs(e)
	e.refreshGauges()
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.t > e.opts.MaxDuration {
			e.now = e.opts.MaxDuration
			break
		}
		e.now = ev.t
		if done := e.handleEpochFinish(ev); done {
			break
		}
	}
	e.finish()
}

// handleEpochFinish processes one epoch completion; returns true when
// the experiment should stop.
func (e *engine) handleEpochFinish(ev *event) bool {
	j := ev.job
	epoch := j.Epoch() + 1
	j.SetEpoch(epoch)
	s := j.samples[epoch-1]
	j.busy += s.Duration()
	if s.Metric > j.best || epoch == 1 {
		j.best = s.Metric
	}
	e.db.Report(j.ID, appstat.Stat{
		Epoch:    s.Epoch,
		Metric:   s.Metric,
		Duration: s.Duration(),
		At:       e.start.Add(e.now),
	})
	e.met.recordEpoch(s.Duration().Seconds())

	sev := sched.Event{
		Job:      j.ID,
		Epoch:    epoch,
		Metric:   s.Metric,
		Duration: s.Duration(),
		Time:     e.start.Add(e.now),
	}
	pol := e.opts.Policy
	pol.ApplicationStat(e, sev)
	if e.pop != nil {
		e.pop.ObserveBest(e.info, s.Metric)
	}

	if e.updateBest(j, s.Metric) && e.opts.StopAtTarget {
		e.res.Reached = true
		e.res.TimeToTarget = e.now
		e.traceMark(ev.machine, "target reached",
			map[string]interface{}{"job": string(j.ID), "metric": s.Metric})
		return true
	}

	// Job finished its budget?
	if epoch >= len(j.samples) {
		if err := j.Complete(); err == nil {
			e.res.Completions++
			e.met.completions++
			e.traceMark(ev.machine, "complete "+string(j.ID),
				map[string]interface{}{"best": j.best})
		}
		e.closeSegment(j)
		e.freeMachine(ev.machine, 0)
		pol.AllocateJobs(e)
		e.refreshGauges()
		return false
	}

	decision := e.observeDecision(&sev, func() sched.Decision {
		return pol.OnIterationFinish(e, sev)
	})
	// Blocking prediction cost: delay this machine by the fits that
	// the decision just performed.
	var predDelay time.Duration
	if e.fits != nil {
		fits := int(e.fits.Fits().Value())
		e.res.Fits = fits
		if !e.opts.OverlapPrediction && e.opts.PredictionCost > 0 {
			predDelay = time.Duration(fits-e.lastFit) * e.opts.PredictionCost
		}
		e.lastFit = fits
	}
	if e.opts.TrackAllocation {
		e.sampleRatio()
	}

	switch decision {
	case sched.Suspend:
		var overhead time.Duration
		if e.opts.Checkpointer != nil {
			snap, _ := marshalEpoch(j)
			img := e.opts.Checkpointer.Capture(snap)
			overhead = img.Latency
			if e.opts.CheckpointAccounting != nil {
				e.opts.CheckpointAccounting.Observe(checkpoint.Record{Size: img.Size, Latency: img.Latency})
			}
		}
		if err := j.Suspend(); err == nil {
			e.res.Suspends++
			e.met.suspends++
			e.book.Requeue(j)
			e.traceMark(ev.machine, "suspend "+string(j.ID),
				map[string]interface{}{"overhead_us": overhead.Microseconds()})
		}
		e.closeSegment(j)
		e.freeMachine(ev.machine, predDelay+overhead)
		pol.AllocateJobs(e)
		e.refreshGauges()
	case sched.Terminate:
		if err := j.Terminate(); err == nil {
			e.res.Terminations++
			e.met.terminations++
			e.traceMark(ev.machine, "terminate "+string(j.ID),
				map[string]interface{}{"epoch": epoch, "best": j.best})
		}
		e.closeSegment(j)
		e.freeMachine(ev.machine, predDelay)
		pol.AllocateJobs(e)
		e.refreshGauges()
	default: // Continue
		e.scheduleEpoch(ev.machine, j, predDelay)
	}
	return false
}

// updateBest tracks the global best; returns true when the target is
// reached for the first time.
func (e *engine) updateBest(j *simJob, metric float64) bool {
	if metric > e.res.Best || e.res.BestJob == "" {
		e.res.Best = metric
		e.res.BestJob = string(j.ID)
		e.met.best.Set(metric)
		e.qual.RecordBest(e.start.Add(e.now), string(j.ID), e.info.Normalize(metric))
	}
	return metric >= e.stopAt
}

// scheduleEpoch queues the next epoch-finish event for job j on
// machine m, honoring the machine's availability time (suspend or
// blocking-prediction overhead from its previous occupant).
func (e *engine) scheduleEpoch(m int, j *simJob, extraDelay time.Duration) {
	startT := e.now
	if at, ok := e.availAt[m]; ok && at > startT {
		startT = at
	}
	if _, wasRunning := e.running[m]; !wasRunning || e.running[m] != j {
		j.segStart = startT + extraDelay
		j.machine = m
	}
	next := j.samples[j.Epoch()] // duration of the upcoming epoch
	e.seq++
	heap.Push(&e.events, &event{
		t:       startT + extraDelay + next.Duration(),
		machine: m,
		job:     j,
		seq:     e.seq,
	})
	e.running[m] = j
}

// closeSegment records the occupancy stretch ending now for job j,
// both in the result and (when tracing) as a complete slice on the
// machine's trace track.
func (e *engine) closeSegment(j *simJob) {
	if e.now > j.segStart {
		e.res.Segments = append(e.res.Segments, Segment{
			Job: string(j.ID), Machine: j.machine, Start: j.segStart, End: e.now,
		})
		e.opts.TraceSink.Complete("sim", fmt.Sprintf("m%d", j.machine), string(j.ID),
			e.start.Add(j.segStart), e.now-j.segStart,
			map[string]interface{}{"epoch": j.Epoch(), "best": j.best})
	}
	j.segStart = e.now
}

// traceMark drops an instant marker on machine m's trace track at the
// current virtual time.
func (e *engine) traceMark(m int, name string, args map[string]interface{}) {
	e.opts.TraceSink.Instant("sim", fmt.Sprintf("m%d", m), name, e.start.Add(e.now), args)
}

// freeMachine releases machine m; overhead models suspend latency or
// blocking prediction time that keeps the slot unusable for a while.
func (e *engine) freeMachine(m int, overhead time.Duration) {
	delete(e.running, m)
	e.availAt[m] = e.now + overhead
	e.freeM = append(e.freeM, m)
}

// sampleRatio records POP's promising/active ratio (Figure 4c).
func (e *engine) sampleRatio() {
	if e.pop == nil {
		return
	}
	alloc := e.pop.Allocation(e)
	active := e.book.ActiveCount()
	if active == 0 {
		return
	}
	e.res.Ratios = append(e.res.Ratios, RatioPoint{
		T:        e.now,
		Ratio:    float64(len(alloc.Promising)) / float64(active),
		Active:   active,
		Promised: len(alloc.Promising),
	})
}

// finish fills the result summary.
func (e *engine) finish() {
	e.res.Duration = e.now
	// Close segments of jobs still running at the cutoff, in machine
	// order: segment order is part of the replay-visible result, so map
	// iteration order must not leak into it.
	ms := make([]int, 0, len(e.running))
	for m := range e.running {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	for _, m := range ms {
		e.closeSegment(e.running[m])
	}
	for _, j := range e.book.Jobs() {
		e.res.Jobs = append(e.res.Jobs, JobOutcome{
			ID:         string(j.ID),
			Epochs:     j.Epoch(),
			BusyTime:   j.busy,
			FinalState: j.State(),
			Best:       j.best,
		})
	}
	if e.fits != nil {
		e.res.Fits = int(e.fits.Fits().Value())
	}
	e.recordQualityOutcomes()
	e.refreshGauges() // final flush of buffered telemetry
}

// --- policy.Context implementation -----------------------------------

func (e *engine) Info() policy.Info { return e.info }
func (e *engine) DB() *appstat.DB   { return e.db }
func (e *engine) Now() time.Time    { return e.start.Add(e.now) }
func (e *engine) Start() time.Time  { return e.start }
func (e *engine) IdleSlots() int    { return len(e.freeM) }
func (e *engine) IdleJobs() int     { return e.book.Suspended() + e.fresh() }

// fresh reports how many trace jobs have never started.
func (e *engine) fresh() int { return len(e.book.Jobs()) - e.next }

func (e *engine) StartIdleJob() (sched.JobID, bool) {
	if len(e.freeM) == 0 {
		return "", false
	}
	j, ok := e.book.Next(e.fresh() > 0)
	if !ok {
		return "", false
	}
	started := j == nil
	if started {
		j = e.book.Jobs()[e.next]
		e.next++
	}
	m := e.freeM[0]
	e.freeM = e.freeM[1:]
	if err := j.Start(sched.MachineID(fmt.Sprintf("m%d", m))); err != nil {
		// Should not happen; drop the job defensively.
		return "", false
	}
	if started {
		e.res.Starts++
		e.met.starts++
	}
	e.scheduleEpoch(m, j, 0)
	return j.ID, true
}

func (e *engine) ActiveJobs() []sched.JobID { return e.book.Active() }

func (e *engine) LabelJob(id sched.JobID, p float64) { e.book.Label(id, p) }

var _ policy.Context = (*engine)(nil)

// marshalEpoch serializes the job's logical training state (its epoch
// counter) as the checkpoint payload.
func marshalEpoch(j *simJob) ([]byte, error) {
	return []byte(fmt.Sprintf(`{"workload":%q,"epoch":%d}`, "sim", j.Epoch())), nil
}
