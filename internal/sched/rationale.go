package sched

import "time"

// Classes and causes a Rationale names.
const (
	ClassPromising     = "promising"
	ClassOpportunistic = "opportunistic"
	// ClassPoor is the class of a job a policy pruned; it is implied by
	// a Cause rather than set as a Class.
	ClassPoor = "poor"

	CauseKillThreshold   = "kill_threshold"
	CauseConfidenceFloor = "confidence_floor"
	CausePredictive      = "predictive_termination"
)

// Rationale is the reasoning behind one OnIterationFinish verdict: the
// policy fills it in, and the engine that asked turns it into the
// decision span, the event-log record, the trace slice and the quality
// audit's prediction. The engine hands in a zeroed Rationale with each
// decision; a policy sets only the fields its decision used.
type Rationale struct {
	// Evaluated reports that the policy examined the job at this
	// decision, rather than letting it pass unexamined between
	// evaluation boundaries.
	Evaluated bool
	// Class is the pool the job was classified into (ClassPromising or
	// ClassOpportunistic).
	Class string
	// Cause names the rule that terminated the job (CauseKillThreshold,
	// CauseConfidenceFloor or CausePredictive).
	Cause string

	// Estimated marks the §3.1 estimate fields below as set.
	Estimated     bool
	Confidence    float64 // P(reach the target within the budget)
	ERT           time.Duration
	EpochDuration time.Duration
	// BandLow and BandHigh bound the 90% credible band of the final
	// metric; equal (zero) when no band was computed.
	BandLow, BandHigh float64
	Truncated         bool // the ERT hit the remaining budget

	// Allocated marks the §3.2 slot division fields below as set.
	Allocated         bool
	Threshold         float64
	PromisingJobs     int
	OpportunisticJobs int
	PromisingSlots    int

	// Compared marks ProbBeatsBest as set: the posterior probability
	// that the job ends above the current global best.
	Compared      bool
	ProbBeatsBest float64

	// KillThreshold is the threshold a CauseKillThreshold termination
	// fell under; ConfidenceFloor the floor a CauseConfidenceFloor
	// termination fell under.
	KillThreshold   float64
	ConfidenceFloor float64
}

// PoolClass is the class the decision left the job in: ClassPoor when
// the policy pruned it, Class otherwise.
func (r *Rationale) PoolClass() string {
	if r.Cause != "" {
		return ClassPoor
	}
	return r.Class
}

// Each calls attr once for every field the policy set, in a fixed
// order, under the key the field carries on decision spans and trace
// slices: num holds a numeric field's value, str a string field's
// (empty for numeric fields).
func (r *Rationale) Each(attr func(key string, num float64, str string)) {
	if r.Estimated {
		attr("confidence", r.Confidence, "")
		attr("ert_seconds", r.ERT.Seconds(), "")
		attr("epoch_duration_seconds", r.EpochDuration.Seconds(), "")
		if r.BandHigh > r.BandLow {
			attr("band_lo", r.BandLow, "")
			attr("band_hi", r.BandHigh, "")
		}
		if r.Truncated {
			attr("truncated", 1, "")
		}
	}
	if r.Compared {
		attr("prob_beats_best", r.ProbBeatsBest, "")
	}
	if r.Allocated {
		attr("threshold", r.Threshold, "")
		attr("promising_jobs", float64(r.PromisingJobs), "")
		attr("opportunistic_jobs", float64(r.OpportunisticJobs), "")
		attr("promising_slots", float64(r.PromisingSlots), "")
	}
	if r.Class != "" {
		attr("class", 0, r.Class)
	}
	if r.Cause != "" {
		attr("cause", 0, r.Cause)
	}
	switch r.Cause {
	case CauseKillThreshold:
		attr("kill_threshold", r.KillThreshold, "")
	case CauseConfidenceFloor:
		attr("confidence_floor", r.ConfidenceFloor, "")
	}
}
