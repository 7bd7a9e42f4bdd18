package sim

import (
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// simMetrics mirrors the live engine's telemetry onto the same metric
// names, so simulator and real-runtime dashboards are directly
// comparable.
//
// Unlike the live engine, the simulator's hot path is sub-microsecond
// per epoch, so per-event atomics and span allocations would dominate
// the run. The event loop is single-threaded, so counts are buffered
// in plain fields and flushed to the registry at job lifecycle points
// (start/suspend/terminate/complete) and at the end of the run;
// decision latency is sampled 1-in-256, and spans are created only for
// decisions the policy evaluated.
type simMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	// fits and predCost model decision latency in simulated time: a
	// sampled decision's latency is (fit delta) × PredictionCost, the
	// same cost model the engine charges machines with. Wall-clock
	// timing here would make replay output host-dependent.
	fits     *obs.Counter // nil when the policy has no FitCounter
	predCost time.Duration

	// Registry flush targets.
	epochsC, decContC, decSuspC, decTermC           *obs.Counter
	startsC, suspendsC, terminationsC, completionsC *obs.Counter
	decisionLatency, epochDur                       *obs.Histogram

	slotsTotal, slotsBusy, jobsActive, jobsSuspended, best *obs.Gauge

	// Buffered event-loop state. Owned by the single simulation
	// goroutine; only the flushed registry values are shared. Epochs
	// and decisions keep monotonic sequence counters (for sampling
	// cadence); flush pushes the delta since the previous flush.
	nDec                 int64 // decisions seen (drives latency sampling)
	nEpoch, flushedEpoch int64 // epochs seen / already flushed
	// dec counts verdicts by sched.Decision value (index 0 unused).
	dec, flushedDecs                            [4]int64
	starts, suspends, terminations, completions int64
	durBuf                                      []float64
}

// latencySampleEvery and durSampleEvery are powers of two so the
// sampling test is a mask. The first event is always sampled.
const (
	latencySampleEvery = 256
	durSampleEvery     = 32
)

func newSimMetrics(r *obs.Registry, fc policy.FitCounter, predCost time.Duration) *simMetrics {
	var fits *obs.Counter
	if fc != nil {
		fits = fc.Fits()
	}
	return &simMetrics{
		reg:             r,
		tracer:          r.Tracer(),
		fits:            fits,
		predCost:        predCost,
		epochsC:         r.Counter(obs.EpochsTotal),
		decContC:        r.Counter(obs.DecisionsTotal("continue")),
		decSuspC:        r.Counter(obs.DecisionsTotal("suspend")),
		decTermC:        r.Counter(obs.DecisionsTotal("terminate")),
		startsC:         r.Counter(obs.StartsTotal),
		suspendsC:       r.Counter(obs.SuspendsTotal),
		terminationsC:   r.Counter(obs.TerminationsTotal),
		completionsC:    r.Counter(obs.CompletionsTotal),
		decisionLatency: r.Histogram(obs.DecisionLatencySeconds),
		epochDur:        r.Histogram(obs.EpochDurationSeconds, 1, 4, 16, 60, 240, 960, 3600),
		slotsTotal:      r.Gauge(obs.SlotsTotal),
		slotsBusy:       r.Gauge(obs.SlotsBusy),
		jobsActive:      r.Gauge(obs.JobsActive),
		jobsSuspended:   r.Gauge(obs.JobsSuspended),
		best:            r.Gauge(obs.BestMetric),
	}
}

// recordEpoch buffers one completed epoch.
func (m *simMetrics) recordEpoch(seconds float64) {
	if m.reg == nil {
		return
	}
	m.nEpoch++
	if m.nEpoch&(durSampleEvery-1) == 1 {
		m.durBuf = append(m.durBuf, seconds)
	}
}

// flush pushes the buffered deltas onto the registry.
func (m *simMetrics) flush() {
	if m.reg == nil {
		return
	}
	m.epochsC.Add(m.nEpoch - m.flushedEpoch)
	m.flushedEpoch = m.nEpoch
	m.decContC.Add(m.dec[sched.Continue&3] - m.flushedDecs[sched.Continue&3])
	m.decSuspC.Add(m.dec[sched.Suspend&3] - m.flushedDecs[sched.Suspend&3])
	m.decTermC.Add(m.dec[sched.Terminate&3] - m.flushedDecs[sched.Terminate&3])
	m.flushedDecs = m.dec
	m.startsC.Add(m.starts)
	m.suspendsC.Add(m.suspends)
	m.terminationsC.Add(m.terminations)
	m.completionsC.Add(m.completions)
	m.starts, m.suspends, m.terminations, m.completions = 0, 0, 0, 0
	for _, s := range m.durBuf {
		m.epochDur.Observe(s)
	}
	m.durBuf = m.durBuf[:0]
}

// refreshGauges flushes buffered counts and updates occupancy gauges
// from the engine state.
func (e *engine) refreshGauges() {
	if e.met.reg == nil {
		return
	}
	e.met.flush()
	e.met.slotsTotal.Set(float64(e.opts.Machines))
	e.met.slotsBusy.Set(float64(len(e.running)))
	e.met.jobsSuspended.Set(float64(e.book.Suspended()))
	e.met.jobsActive.Set(float64(e.book.ActiveCount()))
}

// observeDecision wraps one OnIterationFinish, mirroring the live
// engine at a cost the simulator can afford: every decision is
// counted, latency is sampled, and a span is recorded only for a
// decision the policy evaluated.
func (e *engine) observeDecision(sev *sched.Event, run func() sched.Decision) sched.Decision {
	m := e.met
	if m.reg == nil {
		return run()
	}
	m.nDec++
	why := &e.why
	*why = sched.Rationale{}
	sev.Rationale = why
	// Latency is modeled, not measured: wall-clock timing would differ
	// across hosts and runs, breaking bit-identical replay output. A
	// decision's simulated cost is the curve fits it triggered times
	// the configured per-fit cost (zero when cost modeling is off).
	fits0 := m.fits.Value()
	d := run()
	lat := time.Duration(m.fits.Value()-fits0) * m.predCost
	if m.nDec&(latencySampleEvery-1) == 1 {
		m.decisionLatency.Observe(lat.Seconds())
	}
	m.dec[d&3]++
	if why.Evaluated {
		sp := m.tracer.RecordDecision(string(sev.Job), sev.Epoch, obs.SpanContext{}, lat, why, d)
		e.emitDecisionTrace(sev, why, d, sp, lat)
		e.qual.ObserveDecision(e.start.Add(e.now), string(sev.Job), sev.Epoch, why, d)
		e.publishClassification()
	}
	return d
}

// emitDecisionTrace mirrors one retained decision onto the Chrome
// trace: a slice on the "decisions" track whose duration is the
// decision's modeled latency (fits triggered × per-fit cost — the same
// simulated-time model the latency histogram records, so the export
// stays host-independent). The policy's rationale (ERT, confidence,
// pool sizes) and the verdict become the slice's args.
func (e *engine) emitDecisionTrace(sev *sched.Event, why *sched.Rationale, d sched.Decision, sp *obs.Span, lat time.Duration) {
	if e.opts.TraceSink == nil {
		return
	}
	args := obs.DecisionArgs(why, d)
	args["span"] = sp.ID()
	e.opts.TraceSink.Complete("sim", "decisions", "decision "+string(sev.Job),
		e.start.Add(e.now), lat, args)
}

// publishClassification mirrors POP's slot division and the job table
// onto the registry after each evaluated decision.
func (e *engine) publishClassification() {
	var (
		alloc *core.Allocation
		ests  map[sched.JobID]core.Estimate
	)
	if e.pop != nil {
		a := e.pop.Allocation(e)
		alloc, ests = &a, e.pop.Estimates()
	}
	jobs := e.book.Jobs()
	states := make([]obs.JobState, len(jobs))
	for i, j := range jobs {
		states[i] = obs.JobState{Job: j.Job, Best: j.best}
	}
	now := e.start.Add(e.now)
	e.classes.Publish(now, e.opts.Machines, alloc, ests, states, func(row obs.JobRow) {
		e.opts.TraceSink.Instant("sim", "classes", row.Job+": "+row.Class, now,
			map[string]interface{}{"confidence": row.Confidence, "ert_seconds": row.ERTSeconds})
	})
}
