package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

var qEpoch = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)

// seedAudit builds an audit with two oracle-known jobs: j0 reaches at
// epoch 4 (1s epochs), j1 never reaches and is terminated.
func seedAudit(q *QualityAudit) {
	q.RecordOracle(OracleRecord{
		Job: "j0", WouldReach: true, ReachEpoch: 4,
		CumSeconds: []float64{1, 2, 3, 4, 5, 6}, FinalMetric: 0.9, BestMetric: 0.92,
	})
	q.RecordOracle(OracleRecord{
		Job: "j1", WouldReach: false,
		CumSeconds: []float64{1, 2, 3, 4, 5, 6}, FinalMetric: 0.3, BestMetric: 0.35,
	})
	q.RecordPrediction(PredictionRecord{
		TMS: 1000, Job: "j0", Epoch: 2, Confidence: 0.8, ERTSeconds: 2.5,
		Class: "promising", Decision: "continue", BandLow: 0.85, BandHigh: 0.95,
	})
	q.RecordPrediction(PredictionRecord{
		TMS: 2000, Job: "j1", Epoch: 2, Confidence: 0.1, ERTSeconds: 100,
		Class: "opportunistic", Decision: "suspend", BandLow: 0.5, BandHigh: 0.7,
	})
	q.RecordPrediction(PredictionRecord{
		TMS: 3000, Job: "j1", Epoch: 4, Confidence: 0.02, ERTSeconds: 100,
		Class: "poor", Decision: "terminate", Cause: "confidence_floor",
	})
	q.RecordOutcome(OutcomeRecord{Job: "j0", FinalState: "completed", Epochs: 6, Best: 0.92, Reached: true, ReachEpoch: 4})
	q.RecordOutcome(OutcomeRecord{Job: "j1", FinalState: "terminated", Epochs: 4, Best: 0.35})
	q.RecordBest(qEpoch.Add(1*time.Second), "j1", 0.35)
	q.RecordBest(qEpoch.Add(4*time.Second), "j0", 0.92)
	q.RecordPool(qEpoch.Add(1*time.Second), 1, 1, 0)
	q.RecordPool(qEpoch.Add(4*time.Second), 1, 0, 1)
}

func TestQualityReportJoins(t *testing.T) {
	q := NewQualityAudit(QualityMeta{Workload: "w", Policy: "pop", Target: 0.8, Source: "sim"})
	seedAudit(q)
	rep := q.Report()

	if rep.Predictions != 3 || rep.Scored != 3 {
		t.Fatalf("predictions=%d scored=%d, want 3/3", rep.Predictions, rep.Scored)
	}
	if len(rep.Reliability) != reliabilityBins {
		t.Fatalf("reliability has %d bins, want %d", len(rep.Reliability), reliabilityBins)
	}
	// j0's 0.8-confidence prediction lands in bin [0.8, 0.9) with
	// observed frequency 1; j1's 0.1 pred in bin [0.1, 0.2) and 0.02
	// pred in bin [0, 0.1), both with observed frequency 0.
	if b := rep.Reliability[8]; b.Count != 1 || b.Observed != 1 {
		t.Fatalf("bin 8 = %+v, want count 1 observed 1", b)
	}
	if b := rep.Reliability[1]; b.Count != 1 || b.Observed != 0 {
		t.Fatalf("bin 1 = %+v, want count 1 observed 0", b)
	}
	if b := rep.Reliability[0]; b.Count != 1 || b.Observed != 0 {
		t.Fatalf("bin 0 = %+v, want count 1 observed 0", b)
	}
	// Brier: ((0.8-1)^2 + (0.1-0)^2 + (0.02-0)^2) / 3
	wantBrier := (0.04 + 0.01 + 0.0004) / 3
	if d := rep.BrierScore - wantBrier; d > 1e-12 || d < -1e-12 {
		t.Fatalf("brier = %v, want %v", rep.BrierScore, wantBrier)
	}
	// Bands: j0's band covers 0.9 (hit), j1's band [0.5,0.7] misses 0.3.
	if rep.Band.Count != 2 || rep.Band.Covered != 1 {
		t.Fatalf("band coverage = %+v, want 1/2", rep.Band)
	}
	// ERT error: only j0's pred qualifies; actual = cum[3]-cum[1] = 2s,
	// predicted 2.5s -> abs 0.5, rel 0.25.
	if rep.ERTError.Count != 1 || rep.ERTError.AbsP50 != 0.5 || rep.ERTError.RelP50 != 0.25 {
		t.Fatalf("ert error = %+v, want count 1 abs 0.5 rel 0.25", rep.ERTError)
	}
	// Early termination: j1 terminated and truly poor.
	et := rep.EarlyTerm
	if et.Terminated != 1 || et.TruePoor != 1 || et.PoorTotal != 1 || et.Precision != 1 || et.Recall != 1 {
		t.Fatalf("early-term = %+v", et)
	}
	// Churn: j1 flipped opportunistic -> poor.
	if rep.ChurnTotal != 1 || rep.ChurnedJobs != 1 {
		t.Fatalf("churn = %d/%d, want 1/1", rep.ChurnTotal, rep.ChurnedJobs)
	}
	// Regret against the oracle ceiling 0.92.
	if len(rep.Regret) != 2 || rep.Regret[0].Regret <= rep.Regret[1].Regret {
		t.Fatalf("regret curve = %+v", rep.Regret)
	}
	if rep.Regret[1].Regret != 0 {
		t.Fatalf("final regret = %v, want 0", rep.Regret[1].Regret)
	}
	if len(rep.PoolTimeline) != 2 {
		t.Fatalf("pool timeline has %d samples, want 2", len(rep.PoolTimeline))
	}
}

// TestQualityOutcomeLabelFallback joins against observed outcomes when
// no oracle exists (the live-cluster path), including predictions
// recorded before the outcome.
func TestQualityOutcomeLabelFallback(t *testing.T) {
	q := NewQualityAudit(QualityMeta{Source: "cluster"})
	q.RecordPrediction(PredictionRecord{Job: "j", Epoch: 10, Confidence: 0.9, Class: "promising"})
	if rep := q.Report(); rep.Scored != 0 {
		t.Fatalf("scored %d before any label", rep.Scored)
	}
	q.RecordOutcome(OutcomeRecord{Job: "j", FinalState: "completed", Best: 0.9, Reached: true})
	q.RecordPrediction(PredictionRecord{Job: "j", Epoch: 20, Confidence: 0.95, Class: "promising"})
	rep := q.Report()
	if rep.Scored != 2 {
		t.Fatalf("scored = %d, want 2 (pre- and post-outcome preds)", rep.Scored)
	}
	if rep.ERTError.Count != 0 {
		t.Fatalf("ERT error computed without oracle: %+v", rep.ERTError)
	}
}

func TestQualityLogRoundTrip(t *testing.T) {
	q := NewQualityAudit(QualityMeta{Workload: "w", Policy: "pop", Target: 0.8, Source: "sim"})
	seedAudit(q)
	var buf bytes.Buffer
	if err := q.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := ReadQualityLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := q2.WriteLog(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("quality log round trip is not byte-identical")
	}
	a, b := q.Report(), q2.Report()
	if a.BrierScore != b.BrierScore || a.Scored != b.Scored || a.ERTError != b.ERTError || a.EarlyTerm != b.EarlyTerm {
		t.Fatalf("round-tripped report differs:\n%+v\n%+v", a, b)
	}
	if _, err := ReadQualityLog(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty quality log must error")
	}
}

func TestQualityRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	q := r.EnableQuality(QualityMeta{Source: "sim"})
	if q == nil || r.Quality() != q || r.EnableQuality(QualityMeta{}) != q {
		t.Fatal("EnableQuality must be idempotent and exposed via Quality()")
	}
	seedAudit(q)
	if got := r.Counter(QualityPredictionsTotal).Value(); got != 3 {
		t.Fatalf("predictions counter = %d, want 3", got)
	}
	if got := r.Counter(QualityOutcomesTotal).Value(); got != 2 {
		t.Fatalf("outcomes counter = %d, want 2", got)
	}
	if got := r.Counter(QualityClassChurnTotal).Value(); got != 1 {
		t.Fatalf("churn counter = %d, want 1", got)
	}
	if got := r.Gauge(QualityEarlyTermPrecision).Value(); got != 1 {
		t.Fatalf("precision gauge = %v, want 1", got)
	}
	if got := r.Histogram(QualityERTAbsErrorSeconds).Count(); got != 1 {
		t.Fatalf("ert error histogram count = %d, want 1", got)
	}
	brier := r.Gauge(QualityBrierScore).Value()
	if brier <= 0 || brier > 0.1 {
		t.Fatalf("brier gauge = %v", brier)
	}
}

func TestQualityBounded(t *testing.T) {
	q := NewQualityAudit(QualityMeta{})
	q.maxPreds = 4
	for i := 0; i < 10; i++ {
		q.RecordPrediction(PredictionRecord{Job: "j", Epoch: i, Confidence: 0.5})
	}
	rep := q.Report()
	if rep.Predictions != 4 || rep.DroppedPredictions != 6 {
		t.Fatalf("kept %d dropped %d, want 4/6", rep.Predictions, rep.DroppedPredictions)
	}
}

func TestQualityObserveDecision(t *testing.T) {
	q := NewQualityAudit(QualityMeta{})
	q.ObserveDecision(qEpoch, "j7", 10, &sched.Rationale{
		Evaluated: true, Estimated: true, Confidence: 0.42, ERT: 1234 * time.Second,
		BandLow: 0.6, BandHigh: 0.9, Allocated: true, Threshold: 0.3, Class: sched.ClassOpportunistic,
	}, sched.Suspend)
	q.ObserveDecision(qEpoch, "j8", 20, &sched.Rationale{
		Evaluated: true, Cause: sched.CauseKillThreshold, KillThreshold: 0.15,
	}, sched.Terminate)

	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.preds) != 2 {
		t.Fatalf("recorded %d preds, want 2", len(q.preds))
	}
	p := q.preds[0]
	if p.Job != "j7" || p.Epoch != 10 || p.Confidence != 0.42 || p.ERTSeconds != 1234 || p.Threshold != 0.3 ||
		p.BandLow != 0.6 || p.BandHigh != 0.9 || p.Class != "opportunistic" || p.Decision != "suspend" {
		t.Fatalf("rationale-derived prediction = %+v", p)
	}
	if k := q.preds[1]; k.Class != "poor" || k.Cause != "kill_threshold" || k.Decision != "terminate" || k.Confidence != 0 {
		t.Fatalf("kill-threshold prediction = %+v", k)
	}
}

// TestQualityConcurrent exercises the audit from concurrent recorders
// under -race.
func TestQualityConcurrent(t *testing.T) {
	r := NewRegistry()
	q := r.EnableQuality(QualityMeta{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			job := string(rune('a' + w))
			q.RecordOracle(OracleRecord{Job: job, WouldReach: w%2 == 0, ReachEpoch: 2, CumSeconds: []float64{1, 2, 3}, FinalMetric: 0.9, BestMetric: 0.9})
			for i := 0; i < 500; i++ {
				q.RecordPrediction(PredictionRecord{Job: job, Epoch: i, Confidence: 0.5, Class: "opportunistic"})
				q.RecordPool(qEpoch, 1, 2, 3)
				q.RecordBest(qEpoch, job, float64(i))
			}
			q.RecordOutcome(OutcomeRecord{Job: job, FinalState: "completed", Reached: w%2 == 0})
		}(w)
	}
	wg.Wait()
	rep := q.Report()
	if rep.Predictions != 2000 || rep.Scored != 2000 {
		t.Fatalf("predictions=%d scored=%d, want 2000/2000", rep.Predictions, rep.Scored)
	}
	var nilQ *QualityAudit
	nilQ.RecordPrediction(PredictionRecord{})
	nilQ.RecordOracle(OracleRecord{})
	nilQ.RecordOutcome(OutcomeRecord{})
	nilQ.RecordBest(qEpoch, "x", 1)
	nilQ.RecordPool(qEpoch, 0, 0, 0)
	nilQ.ObserveDecision(qEpoch, "x", 1, &sched.Rationale{}, sched.Continue)
	if nilQ.Report() == nil {
		t.Fatal("nil audit must still report")
	}
}
