package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

func TestFormatSpanID(t *testing.T) {
	if got := FormatSpanID(0); got != "" {
		t.Fatalf("FormatSpanID(0) = %q, want empty (no span)", got)
	}
	if got := FormatSpanID(0x2a); got != "00000000002a" {
		t.Fatalf("FormatSpanID(0x2a) = %q", got)
	}
	tr := NewTracer(4)
	s := tr.Start("decision", "j", 1)
	if s.ID() != FormatSpanID(s.id) {
		t.Fatalf("ID() %q != FormatSpanID(id) %q", s.ID(), FormatSpanID(s.id))
	}
}

// Finished spans stay in the ring unchanged while later spans start.
func TestFinishedSpansStayRetained(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Start("decision", "j", 0)
	s.SetAttr("confidence", 1)
	tr.Finish(s)
	for i := 0; i < 8; i++ {
		tr.Start("decision", "j", i).SetAttr("confidence", 0)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0] != s {
		t.Fatalf("finished span not retained in ring: %+v", spans)
	}
	if v := s.Snapshot(); len(v.Attrs) != 1 || v.Attrs[0].Val != 1 {
		t.Fatalf("retained span mutated after later starts: %+v", v.Attrs)
	}
}

// TestRecordDecision checks a retained decision span: it covers the
// decision's latency, carries the rationale then the verdict, and
// lands in the ring; a nil tracer records nothing.
func TestRecordDecision(t *testing.T) {
	tr := NewTracer(4)
	why := &sched.Rationale{Evaluated: true, Cause: sched.CauseKillThreshold, KillThreshold: 0.15}
	before := time.Now()
	sp := tr.RecordDecision("j", 10, SpanContext{TraceID: "t1", SpanID: "p1"}, 50*time.Millisecond, why, sched.Terminate)
	v := sp.Snapshot()
	want := []Attr{{Key: "cause", Str: "kill_threshold"}, {Key: "kill_threshold", Val: 0.15}, {Key: "decision", Str: "terminate"}}
	if len(v.Attrs) != len(want) {
		t.Fatalf("attrs = %+v, want %+v", v.Attrs, want)
	}
	for i := range want {
		if v.Attrs[i] != want[i] {
			t.Fatalf("attr %d = %+v, want %+v", i, v.Attrs[i], want[i])
		}
	}
	if v.Name != "decision" || v.Job != "j" || v.Epoch != 10 || v.TraceID != "t1" || v.ParentID != "p1" {
		t.Fatalf("span identity = %+v", v)
	}
	if v.DurationNS < (50 * time.Millisecond).Nanoseconds() || !v.Start.Before(before) {
		t.Fatalf("span start %v duration %v, want it to cover the 50ms before recording", v.Start, v.DurationNS)
	}
	if got, ok := tr.Find(v.ID); !ok || got != sp {
		t.Fatal("recorded decision span not resolvable in the ring")
	}
	var nilTracer *Tracer
	if nilTracer.RecordDecision("j", 10, SpanContext{}, 0, why, sched.Terminate) != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.NewTraceID()
	if trace == "" {
		t.Fatal("empty trace ID")
	}
	root := tr.StartSpan("decision", "j1", 3, SpanContext{TraceID: trace})
	if got := root.TraceID(); got != trace {
		t.Fatalf("root trace = %q, want %q", got, trace)
	}
	if root.Parent() != "" {
		t.Fatalf("root parent = %q, want empty", root.Parent())
	}
	child := tr.StartSpan("agent_start", "j1", 3, root.Context())
	if child.TraceID() != trace {
		t.Fatalf("child trace = %q, want %q", child.TraceID(), trace)
	}
	if child.Parent() != root.ID() {
		t.Fatalf("child parent = %q, want %q", child.Parent(), root.ID())
	}
	v := child.Snapshot()
	if v.TraceID != trace || v.ParentID != root.ID() {
		t.Fatalf("snapshot trace/parent = %q/%q", v.TraceID, v.ParentID)
	}
	// Zero-parent StartSpan matches Start.
	if s := tr.Start("d", "j", 0); s.TraceID() != "" || s.Parent() != "" {
		t.Fatal("Start produced a traced span")
	}
}

func TestTracerOriginDisambiguatesIDs(t *testing.T) {
	sched := NewTracer(4)
	agent := NewTracer(4)
	agent.SetOrigin("agent:a1")
	a := sched.Start("d", "j", 0)
	b := agent.Start("d", "j", 0)
	if a.ID() == b.ID() {
		t.Fatalf("span IDs collide across origins: %q", a.ID())
	}
	if sched.NewTraceID() == agent.NewTraceID() {
		t.Fatal("trace IDs collide across origins")
	}
	agent2 := NewTracer(4)
	agent2.SetOrigin("agent:a1")
	if agent2.Start("d", "j", 0).ID() != b.ID() {
		t.Fatal("same origin+seq should reproduce the same ID")
	}
}

func TestFlightRecorderBounds(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	tr := NewTracer(64)
	tr.flight = f

	f.JobLive("live-job")
	for i := 0; i < 3; i++ {
		s := tr.Start("decision", "live-job", i)
		s.SetAttr("i", float64(i))
		tr.Finish(s)
	}
	// Per-job cap is 2: one pinned span was shifted out and counted.
	snap := f.Snapshot()
	if got := len(snap.Live["live-job"]); got != 2 {
		t.Fatalf("live spans = %d, want 2", got)
	}
	if snap.Live["live-job"][0].Epoch != 1 || snap.Live["live-job"][1].Epoch != 2 {
		t.Fatalf("expected oldest pinned span dropped, got %+v", snap.Live["live-job"])
	}
	if f.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", f.Dropped())
	}

	// Unpinned spans go to the global ring; overflow evicts + counts.
	for i := 0; i < 6; i++ {
		tr.Finish(tr.Start("decision", "other", i))
	}
	snap = f.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent = %d, want 4 (ring cap)", len(snap.Recent))
	}
	if snap.Recent[0].Epoch != 2 {
		t.Fatalf("oldest retained epoch = %d, want 2", snap.Recent[0].Epoch)
	}
	if f.Dropped() != 3 { // 1 live shift + 2 ring evictions
		t.Fatalf("dropped = %d, want 3", f.Dropped())
	}

	// JobDone releases pinned spans into the ring.
	f.JobDone("live-job")
	snap = f.Snapshot()
	if len(snap.Live) != 0 {
		t.Fatalf("live jobs after done = %v", snap.Live)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("recent after release = %d, want 4", len(snap.Recent))
	}
	last := snap.Recent[len(snap.Recent)-1]
	if last.Job != "live-job" {
		t.Fatalf("released span not newest in ring: %+v", last)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.JobLive("j")
	f.JobDone("j")
	f.Record(&Span{})
	f.MirrorDrops(NewCounter())
	if f.Dropped() != 0 {
		t.Fatal("nil recorder dropped != 0")
	}
	snap := f.Snapshot()
	if snap.Live == nil || snap.Recent == nil {
		t.Fatal("nil recorder snapshot has nil slices")
	}
}

func TestRegistryFlightWiring(t *testing.T) {
	r := NewRegistry()
	if r.Flight() == nil {
		t.Fatal("registry has no flight recorder")
	}
	r.Flight().JobLive("j")
	s := r.Tracer().Start("decision", "j", 1)
	r.Tracer().Finish(s)
	snap := r.Flight().Snapshot()
	if len(snap.Live["j"]) != 1 {
		t.Fatalf("finished span not forwarded to flight recorder: %+v", snap)
	}
	// Drop mirroring reaches the registry counter.
	for i := 0; i < DefaultFlightPerJob+5; i++ {
		r.Tracer().Finish(r.Tracer().Start("decision", "j", i))
	}
	if got := r.Counter(FlightSpansDroppedTotal).Value(); got != r.Flight().Dropped() || got == 0 {
		t.Fatalf("mirror counter = %d, recorder dropped = %d", got, r.Flight().Dropped())
	}
}

func TestFlightRecorderConcurrency(t *testing.T) {
	f := NewFlightRecorder(16, 4)
	tr := NewTracer(16)
	tr.flight = f
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := []string{"a", "b", "c", "d"}[w]
			for i := 0; i < 200; i++ {
				f.JobLive(job)
				tr.Finish(tr.Start("d", job, i))
				if i%10 == 0 {
					f.JobDone(job)
				}
				_ = f.Snapshot()
			}
		}()
	}
	wg.Wait()
}

func TestTraceWriterExportAndValidate(t *testing.T) {
	w := NewTraceWriter()
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	w.Begin("scheduler", "job j0", "run", base, map[string]interface{}{"slot": "s0"})
	w.Complete("scheduler", "decisions", "decision", base.Add(10*time.Millisecond), 2*time.Millisecond,
		map[string]interface{}{"ert_seconds": 12.5, "confidence": 0.9})
	w.Instant("scheduler", "job j0", "classified promising", base.Add(15*time.Millisecond), nil)
	w.End("scheduler", "job j0", base.Add(20*time.Millisecond))
	w.Begin("agent a1", "slot-0", "agent_run j0", base.Add(time.Millisecond), nil)
	// Left open deliberately: Export must force-close it.

	var buf bytes.Buffer
	if err := w.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEvents(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, buf.String())
	}

	var tf struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var procNames, threadNames []string
	minTS := 1e18
	for _, e := range tf.TraceEvents {
		switch e["name"] {
		case "process_name":
			procNames = append(procNames, e["args"].(map[string]interface{})["name"].(string))
		case "thread_name":
			threadNames = append(threadNames, e["args"].(map[string]interface{})["name"].(string))
		}
		if ph := e["ph"].(string); ph != "M" {
			if ts := e["ts"].(float64); ts < minTS {
				minTS = ts
			}
		}
	}
	if minTS != 0 {
		t.Fatalf("timestamps not re-based: min ts = %v", minTS)
	}
	if strings.Join(procNames, ",") != "scheduler,agent a1" {
		t.Fatalf("process names = %v", procNames)
	}
	want := map[string]bool{"job j0": true, "decisions": true, "slot-0": true}
	for _, n := range threadNames {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing thread names: %v (got %v)", want, threadNames)
	}
}

func TestTraceWriterNilSafe(t *testing.T) {
	var w *TraceWriter
	now := time.Unix(0, 0)
	w.Begin("p", "t", "n", now, nil)
	w.End("p", "t", now)
	w.Complete("p", "t", "n", now, time.Second, nil)
	w.Instant("p", "t", "n", now, nil)
	var buf bytes.Buffer
	if err := w.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEvents(buf.Bytes()); err != nil {
		t.Fatalf("nil export invalid: %v", err)
	}
}

func TestValidateTraceEventsRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{"traceEvents":`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":1}]}`,
		"unbalanced B":  `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]}`,
		"E without B":   `{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":1,"tid":1}]}`,
		"ts regression": `{"traceEvents":[{"name":"x","ph":"i","ts":5,"pid":1,"tid":1},{"name":"y","ph":"i","ts":3,"pid":1,"tid":1}]}`,
		"negative dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		"missing name":  `{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":1}]}`,
		"negative ts":   `{"traceEvents":[{"name":"x","ph":"i","ts":-2,"pid":1,"tid":1}]}`,
	}
	for label, data := range cases {
		if err := ValidateTraceEvents([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted invalid trace", label)
		}
	}
	ok := `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":1},{"name":"x","ph":"E","ts":4,"pid":1,"tid":1}]}`
	if err := ValidateTraceEvents([]byte(ok)); err != nil {
		t.Errorf("validator rejected valid trace: %v", err)
	}
	// Distinct tracks have independent timestamp order.
	multi := `{"traceEvents":[{"name":"x","ph":"i","ts":9,"pid":1,"tid":1},{"name":"y","ph":"i","ts":1,"pid":1,"tid":2}]}`
	if err := ValidateTraceEvents([]byte(multi)); err != nil {
		t.Errorf("validator rejected per-track-ordered trace: %v", err)
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	stop := StartRuntimeSampler(r, 10*time.Millisecond)
	defer stop()
	if r.Gauge(GoGoroutines).Value() < 1 {
		t.Fatalf("goroutines gauge = %v after initial sample", r.Gauge(GoGoroutines).Value())
	}
	if r.Gauge(GoHeapBytes).Value() <= 0 {
		t.Fatalf("heap gauge = %v after initial sample", r.Gauge(GoHeapBytes).Value())
	}
	stop()
	stop() // idempotent
	// Nil registry: no-op stop.
	StartRuntimeSampler(nil, time.Millisecond)()
}
