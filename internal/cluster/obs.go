package cluster

import (
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// expMetrics holds the experiment's resolved metric handles so the hot
// path pays one atomic op per record instead of a registry lookup.
// Every handle is a nil-safe no-op when the experiment runs without a
// registry.
type expMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	decisionLatency *obs.Histogram
	decContinue     *obs.Counter
	decSuspend      *obs.Counter
	decTerminate    *obs.Counter

	epochs   *obs.Counter
	epochDur *obs.Histogram

	starts       *obs.Counter
	resumes      *obs.Counter
	suspends     *obs.Counter
	terminations *obs.Counter
	completions  *obs.Counter

	slotsTotal    *obs.Gauge
	slotsBusy     *obs.Gauge
	slotsOffline  *obs.Gauge
	jobsActive    *obs.Gauge
	jobsSuspended *obs.Gauge
	best          *obs.Gauge

	agentFailures *obs.Counter
	replacements  *obs.Counter

	slotRate map[SlotID]*obs.Gauge
}

// newExpMetrics resolves all handles against r (all nil when r is
// nil).
func newExpMetrics(r *obs.Registry) *expMetrics {
	return &expMetrics{
		reg:             r,
		tracer:          r.Tracer(),
		decisionLatency: r.Histogram(obs.DecisionLatencySeconds),
		decContinue:     r.Counter(obs.DecisionsTotal("continue")),
		decSuspend:      r.Counter(obs.DecisionsTotal("suspend")),
		decTerminate:    r.Counter(obs.DecisionsTotal("terminate")),
		epochs:          r.Counter(obs.EpochsTotal),
		epochDur:        r.Histogram(obs.EpochDurationSeconds, 1, 4, 16, 60, 240, 960, 3600),
		starts:          r.Counter(obs.StartsTotal),
		resumes:         r.Counter(obs.ResumesTotal),
		suspends:        r.Counter(obs.SuspendsTotal),
		terminations:    r.Counter(obs.TerminationsTotal),
		completions:     r.Counter(obs.CompletionsTotal),
		slotsTotal:      r.Gauge(obs.SlotsTotal),
		slotsBusy:       r.Gauge(obs.SlotsBusy),
		slotsOffline:    r.Gauge(obs.SlotsOffline),
		agentFailures:   r.Counter(obs.AgentFailuresTotal),
		replacements:    r.Counter(obs.JobReplacementsTotal),
		jobsActive:      r.Gauge(obs.JobsActive),
		jobsSuspended:   r.Gauge(obs.JobsSuspended),
		best:            r.Gauge(obs.BestMetric),
	}
}

// primeSlotGauges pre-resolves the per-slot training-rate gauges for
// every slot in the pool, so the stat hot path never grows the map (a
// lazy insert there would allocate on the first epoch of every slot,
// mid-experiment). No-op without a registry.
func (m *expMetrics) primeSlotGauges(slots []SlotID) {
	if m.reg == nil {
		return
	}
	if m.slotRate == nil {
		m.slotRate = make(map[SlotID]*obs.Gauge, len(slots))
	}
	for _, s := range slots {
		if _, ok := m.slotRate[s]; !ok {
			m.slotRate[s] = m.reg.Gauge(obs.SlotEpochsPerSecond(string(s)))
		}
	}
}

// decisionCounter maps a verdict to its labeled counter.
func (m *expMetrics) decisionCounter(d sched.Decision) *obs.Counter {
	switch d {
	case sched.Suspend:
		return m.decSuspend
	case sched.Terminate:
		return m.decTerminate
	default:
		return m.decContinue
	}
}

// observeEpoch records one completed epoch: the aggregate duration
// histogram plus the per-slot training-rate gauge (epochs/second on
// the experiment clock).
func (m *expMetrics) observeEpoch(slot SlotID, d time.Duration) {
	m.epochs.Inc()
	m.epochDur.Observe(d.Seconds())
	if m.reg == nil || slot == "" {
		return
	}
	if m.slotRate == nil {
		m.slotRate = make(map[SlotID]*obs.Gauge)
	}
	g, ok := m.slotRate[slot]
	if !ok {
		g = m.reg.Gauge(obs.SlotEpochsPerSecond(string(slot)))
		m.slotRate[slot] = g
	}
	if s := d.Seconds(); s > 0 {
		g.Set(1 / s)
	}
}

// refreshGauges updates the slot/job occupancy gauges from the RM and
// JM.
func (e *Experiment) refreshGauges() {
	if e.met.reg == nil {
		return
	}
	e.met.slotsTotal.Set(float64(e.rm.Total()))
	e.met.slotsBusy.Set(float64(e.rm.BusyCount()))
	e.met.slotsOffline.Set(float64(e.rm.OfflineCount()))
	e.met.jobsSuspended.Set(float64(e.book.Suspended()))
	e.met.jobsActive.Set(float64(e.book.ActiveCount()))
}

// publishClassification snapshots POP's current slot division and the
// per-job classification table onto the registry, so the introspection
// endpoint can answer "what does the scheduler believe right now".
// Called after evaluated decisions; no-op without a registry.
func (e *Experiment) publishClassification() {
	if e.classes == nil {
		return
	}
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
	for i, mj := range jobs {
		states[i] = obs.JobState{Job: mj.Job, Best: mj.Best}
	}
	now := e.clk.Now()
	e.classes.Publish(now, e.rm.Total(), alloc, ests, states, func(row obs.JobRow) {
		e.cfg.TraceSink.Instant("scheduler", "job "+row.Job, "class: "+row.Class, now,
			map[string]interface{}{"confidence": row.Confidence, "ert_seconds": row.ERTSeconds})
	})
}
