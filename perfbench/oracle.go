package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/sim"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
)

// The checks in this file judge a simulated run from the trace alone.
// None of them calls into the scheduler: the FIFO replay is the
// benchmark's own list scheduler, and the properties follow from what
// any scheduler must do with the trace (a job's busy time is the time
// of the epochs it trained, a machine runs one job at a time, ...).

// replay is the outcome the Default policy must produce: FIFO list
// scheduling of the trace's jobs, each trained to its last epoch,
// stopping at the first epoch end at or above the target.
type replay struct {
	reached  bool
	ttt      time.Duration
	duration time.Duration
	best     float64
	bestJob  string
	epochs   []int
	busy     []time.Duration
	starts   int
}

// fifoReplay list-schedules tr on machines: the next job in trace order
// starts on whichever machine frees first (lowest index on ties), and
// runs all its epochs back to back. maxDur is Tmax.
func fifoReplay(tr *trace.Trace, machines int, maxDur time.Duration) replay {
	n := len(tr.Jobs)
	free := make([]time.Duration, machines)
	start := make([]time.Duration, n)
	for j, job := range tr.Jobs {
		m := 0
		for k := range free {
			if free[k] < free[m] {
				m = k
			}
		}
		start[j] = free[m]
		for _, s := range job.Samples {
			free[m] += s.Duration()
		}
	}

	// The run stops at the earliest at-target epoch end, if one comes
	// before Tmax.
	r := replay{ttt: -1, epochs: make([]int, n), busy: make([]time.Duration, n)}
	winJob, winEpoch := -1, -1
	for j, job := range tr.Jobs {
		t := start[j]
		for k, s := range job.Samples {
			t += s.Duration()
			if t > maxDur {
				break
			}
			if s.Metric >= tr.Target && (r.ttt < 0 || t < r.ttt) {
				r.ttt, winJob, winEpoch = t, j, k
			}
		}
	}
	r.reached = winJob >= 0
	limit := maxDur
	if r.reached {
		limit = r.ttt
	}

	// Every epoch that ends before the stop is trained (the winning one
	// ends exactly at it); a job counts as started when it started
	// before the stop.
	type sample struct {
		t      time.Duration
		metric float64
		job    int
	}
	var seen []sample
	for j, job := range tr.Jobs {
		if start[j] > limit || (r.reached && start[j] == limit) {
			continue
		}
		r.starts++
		t := start[j]
		for k, s := range job.Samples {
			t += s.Duration()
			if t > limit || (r.reached && t == limit && !(j == winJob && k == winEpoch)) {
				break
			}
			r.epochs[j]++
			r.busy[j] += s.Duration()
			seen = append(seen, sample{t, s.Metric, j})
			if t > r.duration {
				r.duration = t
			}
		}
	}
	if r.reached {
		r.duration = r.ttt
	} else if r.starts < n || anyCut(r.epochs, tr) {
		r.duration = maxDur
	}
	// Best is the first maximum in time order.
	sort.SliceStable(seen, func(a, b int) bool { return seen[a].t < seen[b].t })
	for i, s := range seen {
		if i == 0 || s.metric > r.best {
			r.best, r.bestJob = s.metric, tr.Jobs[s.job].ID
		}
	}
	return r
}

func anyCut(epochs []int, tr *trace.Trace) bool {
	for j, e := range epochs {
		if e < len(tr.Jobs[j].Samples) {
			return true
		}
	}
	return false
}

// checkFIFO compares a Default run with the replay.
func checkFIFO(tr *trace.Trace, machines int, maxDur time.Duration, res *sim.Result) []string {
	want := fifoReplay(tr, machines, maxDur)
	var bad []string
	if res.Reached != want.reached || res.TimeToTarget != want.ttt && want.reached {
		bad = append(bad, fmt.Sprintf("default: reached=%v ttt=%v, FIFO replay reached=%v ttt=%v",
			res.Reached, res.TimeToTarget, want.reached, want.ttt))
	}
	if res.Duration != want.duration {
		bad = append(bad, fmt.Sprintf("default: duration %v, FIFO replay %v", res.Duration, want.duration))
	}
	if res.Best != want.best || res.BestJob != want.bestJob {
		bad = append(bad, fmt.Sprintf("default: best %v (%s), FIFO replay %v (%s)", res.Best, res.BestJob, want.best, want.bestJob))
	}
	if res.Starts != want.starts {
		bad = append(bad, fmt.Sprintf("default: %d starts, FIFO replay %d", res.Starts, want.starts))
	}
	for j, jo := range res.Jobs {
		if j >= len(want.epochs) || jo.Epochs != want.epochs[j] || jo.BusyTime != want.busy[j] {
			bad = append(bad, fmt.Sprintf("default: job %s trained %d epochs (%v), FIFO replay %d (%v)",
				jo.ID, jo.Epochs, jo.BusyTime, want.epochs[j], want.busy[j]))
			break
		}
	}
	return bad
}

// checkProperties holds for every policy's run on tr with StopAtTarget
// and no modelled overheads.
func checkProperties(policyName string, tr *trace.Trace, res *sim.Result) []string {
	var bad []string
	fail := func(format string, args ...interface{}) {
		bad = append(bad, policyName+": "+fmt.Sprintf(format, args...))
	}
	if len(res.Jobs) != len(tr.Jobs) {
		fail("%d job outcomes for %d trace jobs", len(res.Jobs), len(tr.Jobs))
		return bad
	}
	segBusy := map[string]time.Duration{}
	lastEnd := map[string]time.Duration{}
	for _, s := range res.Segments {
		segBusy[s.Job] += s.End - s.Start
		if s.End > lastEnd[s.Job] {
			lastEnd[s.Job] = s.End
		}
	}
	best, bestSet := 0.0, false
	for j, jo := range res.Jobs {
		samples := tr.Jobs[j].Samples
		if jo.Epochs > len(samples) {
			fail("job %s trained %d epochs of %d", jo.ID, jo.Epochs, len(samples))
			continue
		}
		var busy time.Duration
		jb := 0.0
		for k, s := range samples[:jo.Epochs] {
			busy += s.Duration()
			if k == 0 || s.Metric > jb {
				jb = s.Metric
			}
		}
		if jo.BusyTime != busy {
			fail("job %s busy %v, its %d trace epochs sum to %v", jo.ID, jo.BusyTime, jo.Epochs, busy)
		}
		// A job still on its machine when the run stops also occupies it
		// for part of the epoch it was training.
		if extra := segBusy[jo.ID] - busy; extra != 0 && !(extra > 0 && lastEnd[jo.ID] == res.Duration &&
			jo.Epochs < len(samples) && extra < samples[jo.Epochs].Duration()) {
			fail("job %s occupies machines for %v, trains for %v", jo.ID, segBusy[jo.ID], busy)
		}
		if jo.Epochs > 0 {
			if jo.Best != jb {
				fail("job %s best %v, trace max over trained epochs %v", jo.ID, jo.Best, jb)
			}
			if !bestSet || jb > best {
				best, bestSet = jb, true
			}
		}
	}
	if bestSet && res.Best != best {
		fail("best %v, max over trained trace samples %v", res.Best, best)
	}
	if res.Reached != (res.Best >= tr.Target) {
		fail("reached=%v with best %v against target %v", res.Reached, res.Best, tr.Target)
	}
	if msg := overlap(res.Segments); msg != "" {
		fail("%s", msg)
	}
	return bad
}

// overlap reports two segments sharing a machine at the same time.
func overlap(segs []sim.Segment) string {
	byMachine := map[int][]sim.Segment{}
	for _, s := range segs {
		if s.End < s.Start {
			return fmt.Sprintf("segment of %s ends before it starts", s.Job)
		}
		byMachine[s.Machine] = append(byMachine[s.Machine], s)
	}
	for m, ss := range byMachine {
		sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End {
				return fmt.Sprintf("machine %d runs %s and %s at once", m, ss[i-1].Job, ss[i].Job)
			}
		}
	}
	return ""
}

// checkTargetTime holds for a run that reached the target: its
// time-to-target is the end of the winning job's first at-target epoch,
// found by replaying that job's segments, and it is no earlier than
// the soonest any target-reaching job could get there alone from t=0.
func checkTargetTime(policyName string, tr *trace.Trace, res *sim.Result) []string {
	if !res.Reached {
		return nil
	}
	var bad []string
	var win *trace.Job
	for j := range tr.Jobs {
		if tr.Jobs[j].ID == res.BestJob {
			win = &tr.Jobs[j]
		}
	}
	if win == nil {
		return []string{policyName + ": best job " + res.BestJob + " not in trace"}
	}
	var segs []sim.Segment
	for _, s := range res.Segments {
		if s.Job == res.BestJob {
			segs = append(segs, s)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].Start < segs[b].Start })
	end := time.Duration(-1)
	k := 0
walk:
	for _, s := range segs {
		t := s.Start
		for k < len(win.Samples) && t+win.Samples[k].Duration() <= s.End {
			t += win.Samples[k].Duration()
			if win.Samples[k].Metric >= tr.Target {
				end = t
				break walk
			}
			k++
		}
	}
	if end != res.TimeToTarget {
		bad = append(bad, fmt.Sprintf("%s: time-to-target %v, winner's first at-target epoch ends at %v",
			policyName, res.TimeToTarget, end))
	}
	if lb := soonestAlone(tr); lb < 0 || res.TimeToTarget < lb {
		bad = append(bad, fmt.Sprintf("%s: time-to-target %v before the soonest possible %v",
			policyName, res.TimeToTarget, lb))
	}
	return bad
}

// soonestAlone is the least time any job needs to reach the target
// when trained alone from t=0 (-1 when none ever does).
func soonestAlone(tr *trace.Trace) time.Duration {
	best := time.Duration(-1)
	for _, job := range tr.Jobs {
		var t time.Duration
		for _, s := range job.Samples {
			t += s.Duration()
			if s.Metric >= tr.Target {
				if best < 0 || t < best {
					best = t
				}
				break
			}
		}
	}
	return best
}
