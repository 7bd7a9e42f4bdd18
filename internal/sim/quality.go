package sim

import (
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

// Quality wiring: the simulator is the one engine that knows ground
// truth — every job's full learning curve is in the trace — so it
// seeds the audit with per-job oracle records (would the
// configuration reach the target if trained to its budget, at which
// epoch, and how many cumulative training seconds each epoch costs)
// before any prediction is recorded. The calibration joins in
// internal/obs then score every decision-time prediction against
// exact truth rather than the censored outcomes a live cluster sees.
// All timestamps come from the virtual clock, so the audit (and its
// serialized log) is byte-identical across hosts and runs.

// setupQuality stamps the run metadata and derives oracle ground
// truth from the trace curves. Metrics are normalized onto [0,1] with
// the trace's metric range (§6.3 Eq. 4) so audits from different
// workloads are comparable.
func (e *engine) setupQuality() {
	q := e.qual
	if q == nil {
		return
	}
	q.SetMeta(obs.QualityMeta{
		Workload: e.info.Workload,
		Policy:   e.opts.Policy.Name(),
		Target:   e.info.Normalize(e.info.Target),
		Machines: e.opts.Machines,
		MaxEpoch: e.info.MaxEpoch,
		Source:   "sim",
	})
	for _, j := range e.book.Jobs() {
		o := obs.OracleRecord{
			Job:        string(j.ID),
			CumSeconds: make([]float64, len(j.samples)),
		}
		var cum float64
		best := 0.0
		for i, s := range j.samples {
			cum += s.Duration().Seconds()
			o.CumSeconds[i] = cum
			if n := e.info.Normalize(s.Metric); n > best || i == 0 {
				best = n
			}
			if !o.WouldReach && s.Metric >= e.info.Target {
				o.WouldReach = true
				o.ReachEpoch = i + 1
			}
			if i == len(j.samples)-1 {
				o.FinalMetric = e.info.Normalize(s.Metric)
			}
		}
		o.BestMetric = best
		q.RecordOracle(o)
	}
}

// recordQualityOutcomes files how every job actually ended. With
// oracles already recorded these outcomes are not the label source,
// but they complete the early-termination confusion (terminated ∧
// oracle-poor) and document censoring: how far each job got before
// the scheduler cut it off.
func (e *engine) recordQualityOutcomes() {
	q := e.qual
	if q == nil {
		return
	}
	for _, j := range e.book.Jobs() {
		out := obs.OutcomeRecord{
			Job:        string(j.ID),
			FinalState: j.State().String(),
			Epochs:     j.Epoch(),
			Best:       e.info.Normalize(j.best),
		}
		for i := 0; i < out.Epochs && i < len(j.samples); i++ {
			if j.samples[i].Metric >= e.info.Target {
				out.Reached = true
				out.ReachEpoch = i + 1
				break
			}
		}
		q.RecordOutcome(out)
	}
}
