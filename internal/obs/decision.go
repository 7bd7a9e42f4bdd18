package obs

import (
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// This file turns what the scheduling kernel decided into telemetry,
// for the live engine and the simulator alike: a retained decision's
// span and trace args, and the job classification table.

// RecordDecision retains one scheduling decision as a finished span
// named "decision" that covers the lat before now, annotated with the
// policy's rationale and then the verdict. Nil on a nil tracer.
func (t *Tracer) RecordDecision(job string, epoch int, parent SpanContext, lat time.Duration, why *sched.Rationale, d sched.Decision) *Span {
	s := t.StartSpan("decision", job, epoch, parent)
	if s != nil {
		s.start = s.start.Add(-lat)
		why.Each(func(key string, num float64, str string) {
			s.attrs = append(s.attrs, Attr{Key: key, Val: num, Str: str})
		})
		s.attrs = append(s.attrs, Attr{Key: "decision", Str: d.String()})
	}
	t.Finish(s)
	return s
}

// DecisionArgs renders a decision's rationale and verdict as the args
// of its trace slice, under the same keys as the decision span.
func DecisionArgs(why *sched.Rationale, d sched.Decision) map[string]interface{} {
	args := map[string]interface{}{"decision": d.String()}
	why.Each(func(key string, num float64, str string) {
		if str != "" {
			args[key] = str
		} else {
			args[key] = num
		}
	})
	return args
}

// JobState is one job as an engine tracks it.
type JobState struct {
	Job  *sched.Job
	Best float64
}

// ClassTable publishes the scheduler's current view of every job onto
// a registry's job table, POP's slot division onto the pool gauges,
// and the class split onto the quality audit.
type ClassTable struct {
	reg                                               *Registry
	qual                                              *QualityAudit
	threshold, promSlots, oppSlots, promJobs, oppJobs *Gauge
	lastClass                                         map[sched.JobID]string
}

// NewClassTable resolves the table's gauges against r; q may be nil.
func NewClassTable(r *Registry, q *QualityAudit) *ClassTable {
	return &ClassTable{
		reg:       r,
		qual:      q,
		threshold: r.Gauge(ClassificationThreshold),
		promSlots: r.Gauge(PoolPromisingSlots),
		oppSlots:  r.Gauge(PoolOpportunisticSlots),
		promJobs:  r.Gauge(PoolPromisingJobs),
		oppJobs:   r.Gauge(PoolOpportunisticJobs),
		lastClass: make(map[sched.JobID]string),
	}
}

// Publish builds and publishes the table for jobs, in the given order.
// alloc and ests are POP's current slot division and estimates over
// slots; with a nil alloc (any other policy) rows carry no class. It
// calls changed for each row whose class differs from the previous
// Publish, so engines can mark the change on their own trace tracks.
func (c *ClassTable) Publish(now time.Time, slots int, alloc *core.Allocation, ests map[sched.JobID]core.Estimate, jobs []JobState, changed func(JobRow)) {
	var promising map[string]bool
	if alloc != nil {
		c.threshold.Set(alloc.Threshold)
		c.promSlots.Set(float64(alloc.PromisingSlots))
		c.oppSlots.Set(float64(max(slots-alloc.PromisingSlots, 0)))
		c.promJobs.Set(float64(len(alloc.Promising)))
		c.oppJobs.Set(float64(len(alloc.Opportunistic)))
		promising = make(map[string]bool, len(alloc.Promising))
		for _, est := range alloc.Promising {
			promising[est.JobID] = true
		}
	}
	rows := make([]JobRow, 0, len(jobs))
	var prom, opp, poor int
	for _, js := range jobs {
		j := js.Job
		st := j.State()
		row := JobRow{
			Job:      string(j.ID),
			State:    st.String(),
			Epoch:    j.Epoch(),
			Best:     js.Best,
			Priority: j.Priority(),
		}
		if alloc != nil {
			if est, ok := ests[j.ID]; ok {
				row.Confidence = est.Confidence
				row.ERTSeconds = est.ERT.Seconds()
			}
			switch {
			case promising[row.Job]:
				row.Class = sched.ClassPromising
				prom++
			case st == sched.Terminated:
				row.Class = sched.ClassPoor
				poor++
			case st == sched.Running || st == sched.Suspended:
				row.Class = sched.ClassOpportunistic
				opp++
			}
			if row.Class != "" && c.lastClass[j.ID] != row.Class {
				c.lastClass[j.ID] = row.Class
				changed(row)
			}
		}
		rows = append(rows, row)
	}
	c.reg.PublishJobTable(rows)
	if alloc != nil {
		c.qual.RecordPool(now, prom, opp, poor)
	}
}
