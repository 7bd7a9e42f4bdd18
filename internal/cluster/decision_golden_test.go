package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/appstat"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// goldenAttr is one expected decision-span attribute: Str for string
// annotations, Val for numeric ones.
type goldenAttr struct {
	Key string
	Val float64
	Str string
}

// goldenDecision pins everything the live engine records for one
// retained decision: the span's attributes in order (the verdict is
// the last one), the event-log decision record, and the quality
// audit's PredictionRecord.
type goldenDecision struct {
	name     string
	pol      func(t *testing.T) policy.Policy
	feed     map[sched.JobID][]float64
	prime    []sched.JobID // jobs decided first at the same epoch
	untimed  bool          // report epochs without a duration
	machines int           // slots in the experiment; 0 means 4
	job      sched.JobID
	epoch    int
	decision sched.Decision
	attrs    []goldenAttr
	// Event-log record fields.
	logConf, logERT float64
	logClass        string
	logDetail       string
	// PredictionRecord fields.
	pred obs.PredictionRecord
}

func goldenRising(n int, final float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := float64(i+1) / float64(n)
		out[i] = 0.1 + (final-0.1)*(1-1/(1+4*x))*1.25
	}
	return out
}

func goldenFlat(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v + 0.003*float64(i%3)
	}
	return out
}

func goldenPOP(t *testing.T) policy.Policy {
	p, err := policy.NewPOP(policy.POPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func goldenEarlyTerm(t *testing.T) policy.Policy {
	p, err := policy.NewEarlyTerm(policy.EarlyTermOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenDecisions are the decisions the golden test replays. Their
// expected values were recorded from the engine that annotated decision
// spans with string-keyed attributes, so they pin that every value a
// retained decision carries survived the move to a typed rationale.
var goldenDecisions = []goldenDecision{
	{
		name: "pop promising boundary", pol: goldenPOP,
		feed: map[sched.JobID][]float64{"star": goldenRising(40, 0.76)},
		job:  "star", epoch: 40, decision: sched.Continue,
		attrs: []goldenAttr{
			{Key: "confidence", Val: 0.9029491857807204},
			{Key: "ert_seconds", Val: 453.830030115},
			{Key: "epoch_duration_seconds", Val: 60},
			{Key: "band_lo", Val: 0.8086561184769855},
			{Key: "band_hi", Val: 0.9037878732793772},
			{Key: "threshold", Val: 0.9029491857807204},
			{Key: "promising_jobs", Val: 1},
			{Key: "opportunistic_jobs", Val: 0},
			{Key: "promising_slots", Val: 1},
			{Key: "class", Str: "promising"},
			{Key: "decision", Str: "continue"},
		},
		logConf: 0.9029491857807204, logERT: 453.830030115, logClass: "promising",
		pred: obs.PredictionRecord{Confidence: 0.9029491857807204, ERTSeconds: 453.830030115, Class: "promising", Decision: "continue", Threshold: 0.9029491857807204, BandLow: 0.8086561184769855, BandHigh: 0.9037878732793772},
	},
	{
		name: "pop opportunistic boundary", pol: goldenPOP, machines: 2,
		feed:  map[sched.JobID][]float64{"star": goldenRising(40, 0.76), "meh": goldenRising(40, 0.62)},
		prime: []sched.JobID{"star"}, job: "meh", epoch: 40, decision: sched.Suspend,
		attrs: []goldenAttr{
			{Key: "confidence", Val: 0.3830901737481725},
			{Key: "ert_seconds", Val: 1483.366228065},
			{Key: "epoch_duration_seconds", Val: 60},
			{Key: "band_lo", Val: 0.664272559892789},
			{Key: "band_hi", Val: 0.8149426773808403},
			{Key: "threshold", Val: 0.9029491857807204},
			{Key: "promising_jobs", Val: 1},
			{Key: "opportunistic_jobs", Val: 1},
			{Key: "promising_slots", Val: 1},
			{Key: "class", Str: "opportunistic"},
			{Key: "decision", Str: "suspend"},
		},
		logConf: 0.3830901737481725, logERT: 1483.366228065, logClass: "opportunistic",
		pred: obs.PredictionRecord{Confidence: 0.3830901737481725, ERTSeconds: 1483.366228065, Class: "opportunistic", Decision: "suspend", Threshold: 0.9029491857807204, BandLow: 0.664272559892789, BandHigh: 0.8149426773808403},
	},
	{
		name: "pop kill threshold", pol: goldenPOP,
		feed: map[sched.JobID][]float64{"dead": goldenFlat(10, 0.10)},
		job:  "dead", epoch: 10, decision: sched.Terminate,
		attrs: []goldenAttr{
			{Key: "cause", Str: "kill_threshold"},
			{Key: "kill_threshold", Val: 0.15},
			{Key: "decision", Str: "terminate"},
		},
		logClass: "poor", logDetail: "kill_threshold",
		pred: obs.PredictionRecord{Class: "poor", Decision: "terminate", Cause: "kill_threshold"},
	},
	{
		name: "pop confidence floor", pol: goldenPOP,
		feed: map[sched.JobID][]float64{"plateau": goldenFlat(40, 0.35)},
		job:  "plateau", epoch: 40, decision: sched.Terminate,
		attrs: []goldenAttr{
			{Key: "confidence", Val: 0},
			{Key: "ert_seconds", Val: 40800},
			{Key: "epoch_duration_seconds", Val: 60},
			{Key: "band_lo", Val: 0.35724614039501773},
			{Key: "band_hi", Val: 0.4263282335190429},
			{Key: "truncated", Val: 1},
			{Key: "cause", Str: "confidence_floor"},
			{Key: "confidence_floor", Val: 0.05},
			{Key: "decision", Str: "terminate"},
		},
		logERT: 40800, logClass: "poor", logDetail: "confidence_floor",
		pred: obs.PredictionRecord{ERTSeconds: 40800, Truncated: true, Class: "poor", Decision: "terminate", Cause: "confidence_floor", BandLow: 0.35724614039501773, BandHigh: 0.4263282335190429},
	},
	{
		name: "earlyterm predictive termination", pol: goldenEarlyTerm,
		feed: map[sched.JobID][]float64{"leader": goldenRising(30, 0.75), "flat": goldenFlat(30, 0.12)},
		job:  "flat", epoch: 30, decision: sched.Terminate,
		attrs: []goldenAttr{
			{Key: "prob_beats_best", Val: 0},
			{Key: "cause", Str: "predictive_termination"},
			{Key: "decision", Str: "terminate"},
		},
		logClass: "poor", logDetail: "predictive_termination",
		pred: obs.PredictionRecord{Class: "poor", Decision: "terminate", Cause: "predictive_termination"},
	},
	{
		// Epochs reported without a duration give no ERT basis: the
		// estimate is truncated with confidence exactly 0.
		name: "pop zero confidence boundary", pol: goldenPOP, untimed: true,
		feed: map[sched.JobID][]float64{"cold": goldenRising(10, 0.5)},
		job:  "cold", epoch: 10, decision: sched.Suspend,
		attrs: []goldenAttr{
			{Key: "confidence", Val: 0},
			{Key: "ert_seconds", Val: 40800},
			{Key: "epoch_duration_seconds", Val: 0},
			{Key: "truncated", Val: 1},
			{Key: "threshold", Val: 0},
			{Key: "promising_jobs", Val: 0},
			{Key: "opportunistic_jobs", Val: 1},
			{Key: "promising_slots", Val: 0},
			{Key: "class", Str: "opportunistic"},
			{Key: "decision", Str: "suspend"},
		},
		logERT: 40800, logClass: "opportunistic",
		pred: obs.PredictionRecord{ERTSeconds: 40800, Truncated: true, Class: "opportunistic", Decision: "suspend"},
	},
}

// TestDecisionGolden drives real POP and EarlyTerm decisions through the
// live engine's decision path and checks the retained span, the
// event-log decision record, and the quality audit's prediction
// against recorded values.
func TestDecisionGolden(t *testing.T) {
	for _, tc := range goldenDecisions {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runGoldenDecision(t, tc)
			checkGolden(t, tc, got)
		})
	}
}

type goldenResult struct {
	decision string
	span     obs.View
	log      LogRecord
	pred     obs.PredictionRecord
}

func runGoldenDecision(t *testing.T, tc goldenDecision) goldenResult {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC))
	reg := obs.NewRegistry()
	reg.EnableQuality(obs.QualityMeta{})
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	machines := tc.machines
	if machines == 0 {
		machines = 4
	}
	cfg := expConfig(t, tc.pol(t), machines, 8)
	cfg.Clock = clk
	cfg.Obs = reg
	cfg.EventLog = log
	cfg.MaxDuration = 12 * time.Hour
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.start = clk.Now()
	clk.Advance(40 * time.Minute)

	slot := 0
	for _, id := range append(append([]sched.JobID(nil), tc.prime...), goldenOthers(tc)...) {
		mj, err := e.jm.Add(id, param.Config{"x": float64(slot)}, int64(slot), 120)
		if err != nil {
			t.Fatal(err)
		}
		if err := mj.Job.Start(sched.MachineID(string(rune('a' + slot)))); err != nil {
			t.Fatal(err)
		}
		slot++
		dur := time.Minute
		if tc.untimed {
			dur = 0
		}
		for i, m := range tc.feed[id] {
			e.db.Report(id, appstat.Stat{Epoch: i + 1, Metric: m, Duration: dur, At: e.start.Add(time.Duration(i+1) * time.Minute)})
		}
	}
	for _, id := range tc.prime {
		e.handleIterDone(Event{Kind: EvIterDone, Job: id, Epoch: tc.epoch})
	}
	reply := make(chan DecisionReply, 1)
	e.handleIterDone(Event{Kind: EvIterDone, Job: tc.job, Epoch: tc.epoch, Reply: reply})
	res := goldenResult{decision: (<-reply).Decision.String()}

	found := false
	for _, sp := range reg.Tracer().Spans() {
		v := sp.Snapshot()
		if v.Name == "decision" && v.Job == string(tc.job) && v.Epoch == tc.epoch {
			res.span, found = v, true
		}
	}
	if !found {
		t.Fatalf("no retained decision span for %s@%d", tc.job, tc.epoch)
	}

	log.Flush()
	sc := bufio.NewScanner(&buf)
	found = false
	for sc.Scan() {
		var r LogRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Kind == "decision" && r.Job == string(tc.job) && r.Epoch == tc.epoch {
			res.log, found = r, true
		}
	}
	if !found {
		t.Fatalf("no decision record for %s@%d in the event log", tc.job, tc.epoch)
	}

	var qbuf bytes.Buffer
	if err := reg.Quality().WriteLog(&qbuf); err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(&qbuf)
	found = false
	for sc.Scan() {
		var line struct {
			Kind string                `json:"kind"`
			Pred *obs.PredictionRecord `json:"pred"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Kind == "pred" && line.Pred.Job == string(tc.job) && line.Pred.Epoch == tc.epoch {
			res.pred, found = *line.Pred, true
		}
	}
	if !found {
		t.Fatalf("no prediction record for %s@%d in the quality audit", tc.job, tc.epoch)
	}
	return res
}

// goldenOthers lists the fed jobs not already primed, decided job
// last, in a fixed order.
func goldenOthers(tc goldenDecision) []sched.JobID {
	seen := map[sched.JobID]bool{tc.job: true}
	for _, id := range tc.prime {
		seen[id] = true
	}
	var out []sched.JobID
	for _, id := range []sched.JobID{"leader", "star", "meh", "dead", "plateau", "flat", "cold"} {
		if _, fed := tc.feed[id]; fed && !seen[id] {
			out = append(out, id)
		}
	}
	return append(out, tc.job)
}

// goldenClose compares floats to a relative 1e-9, so the golden
// survives last-bit differences in floating-point code generation.
func goldenClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func checkGolden(t *testing.T, tc goldenDecision, got goldenResult) {
	t.Helper()
	if got.decision != tc.decision.String() {
		t.Errorf("decision = %s, want %s", got.decision, tc.decision)
	}
	attrs := got.span.Attrs
	if len(attrs) != len(tc.attrs) {
		t.Errorf("span attrs = %+v, want %+v", attrs, tc.attrs)
	} else {
		for i, want := range tc.attrs {
			a := attrs[i]
			if a.Key != want.Key || a.Str != want.Str || !goldenClose(a.Val, want.Val) {
				t.Errorf("span attr %d = %+v, want %+v", i, a, want)
			}
		}
	}
	if got.log.Span == "" || got.log.Span != got.span.ID {
		t.Errorf("log record span = %q, want the retained span %q", got.log.Span, got.span.ID)
	}
	if got.log.Decision != tc.decision.String() || !goldenClose(got.log.Confidence, tc.logConf) ||
		!goldenClose(got.log.ERTSeconds, tc.logERT) || got.log.Class != tc.logClass || got.log.Detail != tc.logDetail {
		t.Errorf("log record = {decision %s confidence %v ertSeconds %v class %q detail %q}, want {%s %v %v %q %q}",
			got.log.Decision, got.log.Confidence, got.log.ERTSeconds, got.log.Class, got.log.Detail,
			tc.decision, tc.logConf, tc.logERT, tc.logClass, tc.logDetail)
	}
	p, w := got.pred, tc.pred
	if p.TMS != got.log.T.UnixMilli() {
		t.Errorf("prediction t_ms = %d, want the decision time %d", p.TMS, got.log.T.UnixMilli())
	}
	if !goldenClose(p.Confidence, w.Confidence) || !goldenClose(p.ERTSeconds, w.ERTSeconds) ||
		p.Truncated != w.Truncated || p.Class != w.Class || p.Decision != w.Decision || p.Cause != w.Cause ||
		!goldenClose(p.Threshold, w.Threshold) || !goldenClose(p.BandLow, w.BandLow) || !goldenClose(p.BandHigh, w.BandHigh) {
		w.TMS, w.Job, w.Epoch = p.TMS, p.Job, p.Epoch
		t.Errorf("prediction = %+v, want %+v", p, w)
	}
}

// TestOffBoundaryContinueUnretained checks that a decision the policy
// did not evaluate leaves no span: nothing in the ring, and no span ID
// on its event-log record that would resolve to nothing.
func TestOffBoundaryContinueUnretained(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	cfg := expConfig(t, goldenPOP(t), 1, 1)
	cfg.Obs = reg
	cfg.EventLog = log
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.jm.Add("j1", param.Config{"x": 1}, 1, 120); err != nil {
		t.Fatal(err)
	}
	reply := make(chan DecisionReply, 1)
	e.handleIterDone(Event{Kind: EvIterDone, Job: "j1", Epoch: 7, Reply: reply})
	if r := <-reply; r.Decision != sched.Continue || r.Trace != (obs.SpanContext{}) {
		t.Fatalf("reply = %+v, want an untraced continue", r)
	}
	if n := len(reg.Tracer().Spans()); n != 0 {
		t.Fatalf("off-boundary continue retained %d spans", n)
	}
	log.Flush()
	var r LogRecord
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &r); err != nil {
		t.Fatal(err)
	}
	if r.Kind != "decision" || r.Decision != "continue" || r.Span != "" {
		t.Fatalf("log record = %+v, want a continue without a span", r)
	}
}
