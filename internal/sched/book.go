package sched

import (
	"fmt"
	"sort"
)

// Entry is what a Book holds: *Job itself, or an engine's own per-job
// record that embeds *Job and so inherits its Base method. The engine
// adds only the fields its driver needs; the book owns the rest.
type Entry interface {
	comparable
	Base() *Job
}

// Base returns j. Embedding *Job makes an engine's per-job record an
// Entry.
func (j *Job) Base() *Job { return j }

// Book is the paper's Job Manager (§4.2): the job table in creation
// order and the priority-ordered idle queue behind getIdleJob and
// labelJob. The live experiment loop and the simulator each keep their
// jobs in one, so "which job runs next" is decided by one rule.
//
// The source of fresh configurations stays with the engine (the
// generator in the live loop, the trace cursor in the simulator);
// Next only says whether a suspended job goes before the next fresh
// one. A Book is not safe for concurrent use: each engine touches its
// book only from its own loop goroutine.
type Book[T Entry] struct {
	jobs []T
	byID map[JobID]T
	// idle is the queue of suspended jobs in insertion order, oldest
	// first. An entry whose job has left the suspended state (resumed
	// or terminated) is dropped at the next scan.
	idle []T
}

// NewBook returns an empty book.
func NewBook[T Entry]() *Book[T] {
	return &Book[T]{byID: make(map[JobID]T)}
}

// Add appends a job to the table.
func (b *Book[T]) Add(j T) error {
	id := j.Base().ID
	if _, dup := b.byID[id]; dup {
		return fmt.Errorf("sched: duplicate job %s", id)
	}
	b.byID[id] = j
	b.jobs = append(b.jobs, j)
	return nil
}

// Get looks up a job.
func (b *Book[T]) Get(id JobID) (T, bool) {
	j, ok := b.byID[id]
	return j, ok
}

// Jobs returns every job in creation order. The slice is the book's
// own; callers must not modify it.
func (b *Book[T]) Jobs() []T { return b.jobs }

// Label implements labelJob(jobID, priority): priorities order the
// idle queue, higher first. Unknown jobs are ignored.
func (b *Book[T]) Label(id JobID, priority float64) {
	if j, ok := b.byID[id]; ok {
		j.Base().SetPriority(priority)
	}
}

// Requeue puts a just-suspended job at the back of the idle queue,
// behind everything already queued (§4.2: without a priority the queue
// is FIFO, which is what rotates the opportunistic pool).
func (b *Book[T]) Requeue(j T) {
	for i, q := range b.idle {
		if q == j {
			b.idle = append(b.idle[:i], b.idle[i+1:]...)
			break
		}
	}
	b.idle = append(b.idle, j)
}

// Next implements getIdleJob over the idle queue and the engine's
// source of fresh configurations, fresh reporting whether one remains.
// The best suspended job is the one with the highest priority, the
// longest queued on ties. It runs next when its priority is positive
// or nothing fresh remains: fresh configurations were all queued when
// the experiment began, so an unlabelled suspended job waits behind
// them. Next returns that job, or the zero T when a fresh
// configuration should start instead; ok is false when there is
// nothing to run. It does not dequeue: the job leaves the queue when
// it stops being suspended.
func (b *Book[T]) Next(fresh bool) (resume T, ok bool) {
	var best T
	found := false
	live := b.idle[:0]
	for _, j := range b.idle {
		if j.Base().State() != Suspended {
			continue
		}
		live = append(live, j)
		// Strictly greater: on a tie the earlier-queued job stays best.
		if !found || j.Base().Priority() > best.Base().Priority() {
			best, found = j, true
		}
	}
	var zero T
	clear(b.idle[len(live):])
	b.idle = live
	if found && (best.Base().Priority() > 0 || !fresh) {
		return best, true
	}
	return zero, fresh
}

// Suspended reports the jobs waiting in the idle queue.
func (b *Book[T]) Suspended() int {
	n := 0
	for _, j := range b.idle {
		if j.Base().State() == Suspended {
			n++
		}
	}
	return n
}

// ActiveCount reports running and suspended jobs.
func (b *Book[T]) ActiveCount() int {
	n := 0
	for _, j := range b.jobs {
		if st := j.Base().State(); st == Running || st == Suspended {
			n++
		}
	}
	return n
}

// Active lists running and suspended jobs, sorted by ID.
func (b *Book[T]) Active() []JobID {
	out := make([]JobID, 0, len(b.jobs))
	for _, j := range b.jobs {
		if st := j.Base().State(); st == Running || st == Suspended {
			out = append(out, j.Base().ID)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}
