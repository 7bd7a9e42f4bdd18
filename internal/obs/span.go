package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced unit of work: a retained scheduling decision,
// carrying the inputs the policy saw (ERT, confidence, pool sizes) so
// the verdict is attributable after the fact, or an API or agent step
// in the same trace. Spans are created and finished by a Tracer; a
// decision span's ID is stamped into the decision's LogRecord.
//
// A nil *Span is a valid no-op.
type Span struct {
	id     uint64
	name   string
	job    string
	epoch  int
	start  time.Time
	trace  string // trace this span belongs to ("" = untraced)
	parent string // span ID of the causing span, possibly remote

	mu    sync.Mutex
	attrs []Attr
	end   time.Time
}

// SpanContext is the cross-process identity of a span: enough to stamp
// onto a wire frame so the receiving process can record its own work as
// a child of the sender's. The zero value means "untraced".
type SpanContext struct {
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.TraceID != "" }

// Attr is one key/value annotation on a span. Exactly one of Val
// (numeric) or Str is meaningful; Str=="" means numeric.
type Attr struct {
	Key string  `json:"key"`
	Val float64 `json:"val,omitempty"`
	Str string  `json:"str,omitempty"`
}

// FormatSpanID renders a raw span identifier in the canonical
// hexadecimal form used everywhere a span ID appears as a string
// ("" for the zero ID, which means "no span").
func FormatSpanID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%012x", id)
}

// ID returns the span's hexadecimal identifier ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return FormatSpanID(s.id)
}

// Context returns the span's cross-process identity. The zero value on
// a nil or untraced span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.ID()}
}

// Parent returns the ID of the causing span ("" when the span is a
// trace root or untraced).
func (s *Span) Parent() string {
	if s == nil {
		return ""
	}
	return s.parent
}

// TraceID returns the trace this span belongs to ("" when untraced).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// SetAttr records a numeric annotation.
func (s *Span) SetAttr(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
	s.mu.Unlock()
}

// SetStr records a string annotation.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v})
	s.mu.Unlock()
}

// View is a span's JSON-serializable snapshot.
type View struct {
	ID         string    `json:"id"`
	TraceID    string    `json:"trace_id,omitempty"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Job        string    `json:"job,omitempty"`
	Epoch      int       `json:"epoch,omitempty"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Snapshot copies the span into a serializable view.
func (s *Span) Snapshot() View {
	if s == nil {
		return View{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := View{
		ID:       s.ID(),
		TraceID:  s.trace,
		ParentID: s.parent,
		Name:     s.name,
		Job:      s.job,
		Epoch:    s.epoch,
		Start:    s.start,
	}
	if !s.end.IsZero() {
		v.DurationNS = s.end.Sub(s.start).Nanoseconds()
	}
	v.Attrs = append(v.Attrs, s.attrs...)
	return v
}

// Tracer hands out spans and retains the most recent completed ones in
// a fixed-size ring for live introspection.
type Tracer struct {
	next      atomic.Uint64
	nextTrace atomic.Uint64
	origin    uint64          // folded into IDs; set once before use
	flight    *FlightRecorder // finished spans are forwarded here

	mu   sync.Mutex
	ring []*Span
	pos  int
	n    int
}

// NewTracer returns a tracer retaining up to capacity completed spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Span, capacity)}
}

// SetOrigin namespaces this tracer's span and trace IDs by folding a
// hash of name into their high bits, so IDs minted by different
// processes (scheduler vs each agent) cannot collide when their spans
// meet in one trace. Call once at setup, before any span is started;
// an empty name keeps the default (unprefixed) IDs.
func (t *Tracer) SetOrigin(name string) {
	if t == nil || name == "" {
		return
	}
	// FNV-1a over the name; keep the high 32 bits (top bit forced so
	// the prefix is never zero) and leave the low 32 for the counters.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	t.origin = (h | 1<<63) &^ 0xffffffff
}

// Start opens a root span with no trace context. Nil tracers return
// nil spans, so the call chain is a no-op when tracing is
// unconfigured.
func (t *Tracer) Start(name, job string, epoch int) *Span {
	return t.StartSpan(name, job, epoch, SpanContext{})
}

// StartSpan opens a span as a child of parent: it joins parent's trace
// and records parent's span ID as its causing span. A zero parent
// yields a root span (same as Start).
func (t *Tracer) StartSpan(name, job string, epoch int, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		id:     t.origin | t.next.Add(1),
		name:   name,
		job:    job,
		epoch:  epoch,
		start:  time.Now(),
		trace:  parent.TraceID,
		parent: parent.SpanID,
	}
}

// NewTraceID mints a fresh trace identifier, namespaced by the
// tracer's origin. "" on a nil tracer (untraced).
func (t *Tracer) NewTraceID() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%016x", t.origin|t.nextTrace.Add(1))
}

// Finish closes the span, retains it in the ring, and forwards it to
// the flight recorder (when the tracer belongs to a registry).
func (t *Tracer) Finish(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.mu.Lock()
	s.end = time.Now()
	s.mu.Unlock()
	t.mu.Lock()
	t.ring[t.pos] = s
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	t.flight.Record(s)
}

// Spans returns the retained completed spans, oldest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, t.n)
	start := t.pos - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Find returns the retained span with the given ID, if still in the
// ring.
func (t *Tracer) Find(id string) (*Span, bool) {
	for _, s := range t.Spans() {
		if s.ID() == id {
			return s, true
		}
	}
	return nil, false
}
