package cluster

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// LogRecord is one line of the experiment event log: everything the
// scheduler observes or decides, timestamped on the experiment clock.
// The log is the runtime's observability surface — what you grep when
// a policy behaves unexpectedly — and is also the raw material for
// offline analysis of scheduling behaviour.
type LogRecord struct {
	T        time.Time `json:"t"`
	Kind     string    `json:"kind"` // start|resume|stat|decision|suspend|terminate|complete|error|snapshot|stop
	Job      string    `json:"job,omitempty"`
	Slot     string    `json:"slot,omitempty"`
	Epoch    int       `json:"epoch,omitempty"`
	Metric   float64   `json:"metric,omitempty"`
	Decision string    `json:"decision,omitempty"`
	Detail   string    `json:"detail,omitempty"`
	// Agent names the node agent behind agent_down/agent_up/agent_error
	// records.
	Agent string `json:"agent,omitempty"`
	// Span links a decision record to its trace: resolve it at the
	// introspection endpoint (/spans?id=...) to see the estimate
	// inputs (ERT, confidence, pool sizes) behind the verdict.
	Span string `json:"span,omitempty"`
	// Confidence, ERTSeconds, and Class carry the prediction behind a
	// decision record directly on the log line (zero/empty off
	// evaluation boundaries), so offline analysis of prediction quality
	// does not depend on the span ring still holding the decision.
	Confidence float64 `json:"confidence,omitempty"`
	ERTSeconds float64 `json:"ertSeconds,omitempty"`
	Class      string  `json:"class,omitempty"`
}

// DefaultEventLogBuffer is the record capacity of the append buffer; a
// burst larger than this while the flusher is behind is dropped (and
// counted) rather than blocking the scheduler loop.
const DefaultEventLogBuffer = 4096

// EventLog serializes LogRecords as JSON lines through a batching
// flusher: Log appends to an in-memory buffer and a single background
// goroutine swaps the buffer out and encodes it, so the scheduler's
// decision path never performs I/O. Safe for concurrent use.
//
// Back-pressure is drop-not-block: when the buffer is full (the sink
// is slower than the event rate) or the log is dead after a write
// error, records are discarded and counted. The count is exact and
// single-sourced — Dropped() and, once Instrument is called, the
// hyperdrive_eventlog_dropped_total counter are updated together under
// the same lock and always agree.
type EventLog struct {
	mu       sync.Mutex
	flushed  sync.Cond // signalled after every batch and on close
	fill     sync.Cond // signalled when records or close arrive
	enc      *json.Encoder
	buf      []LogRecord // append side; swapped wholesale by the flusher
	spare    []LogRecord // recycled batch storage (double buffering)
	flushing bool        // flusher is encoding a swapped-out batch
	dead     bool        // write error: all subsequent records drop
	closed   bool
	done     chan struct{} // flusher exited
	dropped  atomic.Int64
	drops    *obs.Counter // nil-safe registry mirror of dropped
}

// NewEventLog wraps a writer with the default buffer capacity.
func NewEventLog(w io.Writer) *EventLog {
	return NewEventLogBuffer(w, DefaultEventLogBuffer)
}

// NewEventLogBuffer wraps a writer with an explicit append-buffer
// capacity (minimum 1). Small capacities are for tests that exercise
// the drop path deterministically.
func NewEventLogBuffer(w io.Writer, capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	l := &EventLog{
		enc:   json.NewEncoder(w),
		buf:   make([]LogRecord, 0, capacity),
		spare: make([]LogRecord, 0, capacity),
		done:  make(chan struct{}),
	}
	l.flushed.L = &l.mu
	l.fill.L = &l.mu
	go l.flusher()
	return l
}

// Instrument mirrors the drop count onto the registry's
// hyperdrive_eventlog_dropped_total counter, backfilling drops accrued
// before the call so the counter and Dropped() agree exactly from the
// moment of instrumentation.
func (l *EventLog) Instrument(r *obs.Registry) {
	if l == nil || r == nil {
		return
	}
	l.mu.Lock()
	l.drops = r.Counter(obs.EventLogDroppedTotal)
	l.drops.Add(l.dropped.Load())
	l.mu.Unlock()
}

// Dropped reports how many records have been lost — to write errors,
// to buffer overflow while the sink lagged, or to logging after Close.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Log buffers one record for the flusher. It never blocks on the sink:
// a full buffer drops the record and counts it.
func (l *EventLog) Log(r LogRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.dead || l.closed || len(l.buf) == cap(l.buf) {
		l.dropLocked(1)
		l.mu.Unlock()
		return
	}
	l.buf = append(l.buf, r)
	l.mu.Unlock()
	l.fill.Signal()
}

// LogSync appends one record, waiting for buffer space instead of
// dropping when the flusher is behind. It is for terminal records —
// the "stop" lifecycle line an experiment writes as it shuts down —
// that must survive even when a cancel lands mid-burst with the
// buffer full; everything on the decision hot path stays on the
// non-blocking Log. Returns false (and counts a drop) only when the
// log is closed or dead, where waiting could never succeed.
func (l *EventLog) LogSync(r LogRecord) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	for !l.dead && !l.closed && len(l.buf) == cap(l.buf) {
		l.flushed.Wait()
	}
	if l.dead || l.closed {
		l.dropLocked(1)
		l.mu.Unlock()
		return false
	}
	l.buf = append(l.buf, r)
	l.mu.Unlock()
	l.fill.Signal()
	return true
}

// Flush blocks until every record accepted so far has been encoded to
// the sink (or counted as dropped, if the log died en route).
func (l *EventLog) Flush() {
	if l == nil {
		return
	}
	l.mu.Lock()
	for len(l.buf) > 0 || l.flushing {
		l.flushed.Wait()
	}
	l.mu.Unlock()
}

// Close drains the buffer, stops the flusher, and marks the log
// closed; records logged afterwards are dropped and counted. Close is
// idempotent and does not close the underlying writer.
func (l *EventLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.fill.Signal()
	}
	l.mu.Unlock()
	<-l.done
}

// dropLocked counts n lost records on the single accounting path;
// callers hold l.mu, which is what keeps the atomic and the registry
// counter in exact agreement.
func (l *EventLog) dropLocked(n int64) {
	l.dropped.Add(n)
	l.drops.Add(n)
}

// flusher is the single background encoder: swap the append buffer for
// the spare, render and write the batch outside the lock, recycle the
// batch storage, repeat until closed and drained.
func (l *EventLog) flusher() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.buf) == 0 && !l.closed {
			l.fill.Wait()
		}
		if len(l.buf) == 0 { // closed and drained
			l.mu.Unlock()
			l.flushed.Broadcast()
			return
		}
		batch := l.buf
		l.buf = l.spare[:0]
		l.spare = nil
		l.flushing = true
		dead := l.dead
		l.mu.Unlock()

		var failedAt = -1
		if !dead {
			for i := range batch {
				if err := l.enc.Encode(&batch[i]); err != nil {
					failedAt = i
					break
				}
			}
		}

		l.mu.Lock()
		switch {
		case dead:
			l.dropLocked(int64(len(batch)))
		case failedAt >= 0:
			l.dead = true
			l.dropLocked(int64(len(batch) - failedAt))
		}
		l.spare = batch[:0]
		l.flushing = false
		l.mu.Unlock()
		l.flushed.Broadcast()
	}
}

// logEvent emits a record for an executor event.
func (e *Experiment) logEvent(kind string, ev Event) {
	if e.cfg.EventLog == nil {
		return
	}
	rec := LogRecord{
		T:      e.clk.Now(),
		Kind:   kind,
		Job:    string(ev.Job),
		Slot:   string(ev.Slot),
		Epoch:  ev.Epoch,
		Metric: ev.Metric,
		Agent:  ev.Agent,
	}
	if ev.Err != nil {
		rec.Detail = ev.Err.Error()
	}
	e.cfg.EventLog.Log(rec)
}

// logDecision emits a record for an OnIterationFinish verdict,
// carrying the retained decision span's ID ("" for off-boundary
// continues or without tracing) and the prediction in the policy's
// rationale.
func (e *Experiment) logDecision(job sched.JobID, epoch int, why *sched.Rationale, d sched.Decision, spanID string) {
	if e.cfg.EventLog == nil {
		return
	}
	e.cfg.EventLog.Log(LogRecord{
		T:          e.clk.Now(),
		Kind:       "decision",
		Job:        string(job),
		Epoch:      epoch,
		Decision:   d.String(),
		Span:       spanID,
		Confidence: why.Confidence,
		ERTSeconds: why.ERT.Seconds(),
		Class:      why.PoolClass(),
		Detail:     why.Cause,
	})
}

// logLifecycle emits a start/resume/stop style record.
func (e *Experiment) logLifecycle(kind string, job sched.JobID, slot SlotID, detail string) {
	if e.cfg.EventLog == nil {
		return
	}
	e.cfg.EventLog.Log(LogRecord{
		T:      e.clk.Now(),
		Kind:   kind,
		Job:    string(job),
		Slot:   string(slot),
		Detail: detail,
	})
}
