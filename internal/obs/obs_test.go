package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(1)
	r.Tracer().Finish(r.Tracer().Start("d", "j", 1))
	r.PublishJobTable([]JobRow{{Job: "j"}})
	if rows := r.JobTable(); rows != nil {
		t.Fatalf("nil registry returned table %v", rows)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var sp *Span
	sp.SetAttr("a", 1)
	sp.SetStr("b", "c")
	if sp.ID() != "" {
		t.Fatalf("nil span ID = %q", sp.ID())
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines
// while snapshots are taken; run under -race this is the registry's
// safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hyperdrive_epochs_total")
			g := r.Gauge("hyperdrive_slots_busy")
			h := r.Histogram("hyperdrive_decision_latency_seconds")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i % 5))
				h.Observe(float64(i%100) * 1e-4)
				// Exercise create-on-first-use races too.
				r.Counter(DecisionsTotal("suspend")).Inc()
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(&strings.Builder{})
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hyperdrive_epochs_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter(DecisionsTotal("suspend")).Value(); got != workers*perWorker {
		t.Fatalf("labeled counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("hyperdrive_decision_latency_seconds")
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	c := NewCounter()
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestGaugeAdd(t *testing.T) {
	g := NewGauge()
	g.Set(1.5)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 100 samples uniform in (0, 4]: quantiles should roughly track.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if q := h.Quantile(0.5); q < 1 || q > 3 {
		t.Fatalf("p50 = %v, want within [1, 3]", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Fatalf("p100 = %v, want 4", q)
	}
	h.Observe(100) // +Inf bucket
	if q := h.Quantile(0.999); q != 8 {
		t.Fatalf("tail quantile = %v, want capped at 8", q)
	}
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestTracerRingAndResolve(t *testing.T) {
	tr := NewTracer(3)
	var ids []string
	for i := 0; i < 5; i++ {
		s := tr.Start("decision", "job-1", i)
		s.SetAttr("confidence", float64(i)/10)
		tr.Finish(s)
		ids = append(ids, s.ID())
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring kept %d spans, want 3", len(spans))
	}
	// Oldest two evicted.
	if _, ok := tr.Find(ids[0]); ok {
		t.Fatal("evicted span still resolvable")
	}
	s, ok := tr.Find(ids[4])
	if !ok {
		t.Fatal("latest span not resolvable")
	}
	v := s.Snapshot()
	if v.DurationNS < 0 || len(v.Attrs) != 1 || v.Attrs[0] != (Attr{Key: "confidence", Val: 0.4}) {
		t.Fatalf("snapshot = %+v", v)
	}
}

func TestJobTablePublish(t *testing.T) {
	r := NewRegistry()
	if r.JobTable() != nil {
		t.Fatal("unpublished table should be nil")
	}
	r.PublishJobTable([]JobRow{{Job: "cfg-1", Class: "promising", Confidence: 0.8}})
	rows := r.JobTable()
	if len(rows) != 1 || rows[0].Class != "promising" {
		t.Fatalf("table = %+v", rows)
	}
	r.PublishJobTable(nil)
	if rows := r.JobTable(); rows == nil || len(rows) != 0 {
		t.Fatalf("nil publish should yield empty table, got %v", rows)
	}
}
