package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// This file is the search-quality audit trail: every decision-time
// prediction the scheduler makes (confidence, ERT, credible band, pool
// verdict) is recorded and later joined against realized outcomes — or
// against simulator oracle ground truth, where the full learning curve
// of every configuration is known up front. The joins yield the
// calibration signals POP's value proposition rests on: reliability
// bins, Brier score, credible-band coverage, ERT error percentiles,
// early-termination precision/recall, classification churn, and
// time-to-best regret.

// QualityMeta describes the run an audit trail belongs to.
type QualityMeta struct {
	Workload string  `json:"workload,omitempty"`
	Policy   string  `json:"policy,omitempty"`
	Target   float64 `json:"target,omitempty"` // normalized [0,1]
	Machines int     `json:"machines,omitempty"`
	MaxEpoch int     `json:"max_epoch,omitempty"`
	Source   string  `json:"source,omitempty"` // "sim" | "cluster"
}

// PredictionRecord is one audited decision-time prediction.
type PredictionRecord struct {
	TMS        int64   `json:"t_ms"` // run-clock unix milliseconds
	Job        string  `json:"job"`
	Epoch      int     `json:"epoch"`
	Confidence float64 `json:"confidence"` // P(reach target within budget)
	ERTSeconds float64 `json:"ert_seconds"`
	Truncated  bool    `json:"truncated,omitempty"`
	Class      string  `json:"class,omitempty"`    // promising|opportunistic|poor
	Decision   string  `json:"decision,omitempty"` // continue|suspend|terminate
	Cause      string  `json:"cause,omitempty"`    // kill_threshold|confidence_floor
	Threshold  float64 `json:"threshold,omitempty"`
	BandLow    float64 `json:"band_lo,omitempty"` // credible band at MaxEpoch
	BandHigh   float64 `json:"band_hi,omitempty"`
}

// OutcomeRecord is how one job actually ended.
type OutcomeRecord struct {
	Job        string  `json:"job"`
	FinalState string  `json:"final_state"` // pending|running|suspended|terminated|completed
	Epochs     int     `json:"epochs"`
	Best       float64 `json:"best"` // normalized best metric observed
	Reached    bool    `json:"reached"`
	ReachEpoch int     `json:"reach_epoch,omitempty"`
}

// OracleRecord is ground truth for one job, derivable only when the
// full learning curve is known (trace-driven simulation): whether the
// configuration would reach the target if trained to its full budget,
// at which epoch, and the cumulative training seconds through each
// epoch (CumSeconds[i] covers epochs 1..i+1) so predicted ERT can be
// compared against actual remaining training time.
type OracleRecord struct {
	Job         string    `json:"job"`
	WouldReach  bool      `json:"would_reach"`
	ReachEpoch  int       `json:"reach_epoch,omitempty"`
	CumSeconds  []float64 `json:"cum_seconds,omitempty"`
	FinalMetric float64   `json:"final_metric"` // normalized, at the budget
	BestMetric  float64   `json:"best_metric"`  // normalized, over the curve
}

// BestSample is one improvement of the global best metric.
type BestSample struct {
	TMS    int64   `json:"t_ms"`
	Job    string  `json:"job"`
	Metric float64 `json:"metric"` // normalized
}

// PoolSample is one snapshot of the pool occupancy split.
type PoolSample struct {
	TMS           int64 `json:"t_ms"`
	Promising     int   `json:"promising"`
	Opportunistic int   `json:"opportunistic"`
	Poor          int   `json:"poor"`
}

// DefaultQualityMaxPredictions bounds the prediction trail; records
// past the bound are counted as dropped, never silently lost.
const DefaultQualityMaxPredictions = 1 << 16

// qualityERTBuckets are the ERT-absolute-error histogram bounds in
// seconds: one minute to four days, covering the paper's
// multi-day-experiment scale.
var qualityERTBuckets = []float64{
	60, 300, 900, 3600, 4 * 3600, 12 * 3600, 24 * 3600, 48 * 3600, 96 * 3600,
}

// QualityAudit accumulates the prediction trail and its joins. All
// methods are nil-safe no-ops and safe for concurrent use; the
// accumulated state is deterministic given the same record sequence
// (no wall-clock reads, no map-order dependence).
type QualityAudit struct {
	mu       sync.Mutex
	meta     QualityMeta
	preds    []PredictionRecord
	predIdx  map[string][]int // job -> indices into preds
	outcomes map[string]OutcomeRecord
	oracles  map[string]OracleRecord
	best     []BestSample
	pools    *sampleRing
	maxPreds int
	dropped  int64

	// Join state: a prediction is scored exactly once, when its job's
	// label source (oracle preferred, else outcome) becomes known.
	scored   map[string]bool // job's existing preds already scored
	lastCls  map[string]string
	churn    map[string]int
	churnSum int

	brierSum           float64
	brierN             int
	bandCovered, bandN int
	ertAbs, ertRel     []float64
	termN, truePoorN   int // jobs with oracle: terminated / terminated∧poor
	poorN              int // jobs with oracle that would not reach

	// Registry mirrors (nil-safe when the audit is standalone).
	predsC, droppedC, outcomesC, churnC *Counter
	brierG, coverageG, precG, recG      *Gauge
	ertAbsH                             *Histogram
}

// NewQualityAudit builds a standalone audit (no registry mirrors).
func NewQualityAudit(meta QualityMeta) *QualityAudit {
	return &QualityAudit{
		meta:     meta,
		predIdx:  make(map[string][]int),
		outcomes: make(map[string]OutcomeRecord),
		oracles:  make(map[string]OracleRecord),
		pools:    newSampleRing(4096),
		maxPreds: DefaultQualityMaxPredictions,
		scored:   make(map[string]bool),
		lastCls:  make(map[string]string),
		churn:    make(map[string]int),
	}
}

// bind mirrors the audit's aggregates onto registry metrics.
func (q *QualityAudit) bind(r *Registry) {
	q.predsC = r.Counter(QualityPredictionsTotal)
	q.droppedC = r.Counter(QualityPredictionsDroppedTotal)
	q.outcomesC = r.Counter(QualityOutcomesTotal)
	q.churnC = r.Counter(QualityClassChurnTotal)
	q.brierG = r.Gauge(QualityBrierScore)
	q.coverageG = r.Gauge(QualityBandCoverageRatio)
	q.precG = r.Gauge(QualityEarlyTermPrecision)
	q.recG = r.Gauge(QualityEarlyTermRecall)
	q.ertAbsH = r.Histogram(QualityERTAbsErrorSeconds, qualityERTBuckets...)
}

// SetMeta replaces the audit's run description.
func (q *QualityAudit) SetMeta(m QualityMeta) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.meta = m
	q.mu.Unlock()
}

// RecordPrediction appends one decision-time prediction. If the job's
// ground truth is already known the prediction is scored immediately.
func (q *QualityAudit) RecordPrediction(p PredictionRecord) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.preds) >= q.maxPreds {
		q.dropped++
		q.droppedC.Inc()
		return
	}
	q.preds = append(q.preds, p)
	q.predIdx[p.Job] = append(q.predIdx[p.Job], len(q.preds)-1)
	q.predsC.Inc()
	if p.Class != "" {
		if last := q.lastCls[p.Job]; last != "" && last != p.Class {
			q.churn[p.Job]++
			q.churnSum++
			q.churnC.Inc()
		}
		q.lastCls[p.Job] = p.Class
	}
	if q.scored[p.Job] {
		q.scorePred(p)
		q.refreshGaugesLocked()
	}
}

// ObserveDecision records the prediction behind one retained decision
// from the policy's rationale. Decisions without an estimate
// (kill-threshold prunes) still record, with class "poor", so
// termination verdicts are audited.
func (q *QualityAudit) ObserveDecision(t time.Time, job string, epoch int, why *sched.Rationale, d sched.Decision) {
	if q == nil {
		return
	}
	q.RecordPrediction(PredictionRecord{
		TMS:        t.UnixMilli(),
		Job:        job,
		Epoch:      epoch,
		Confidence: why.Confidence,
		ERTSeconds: why.ERT.Seconds(),
		Truncated:  why.Truncated,
		Class:      why.PoolClass(),
		Decision:   d.String(),
		Cause:      why.Cause,
		Threshold:  why.Threshold,
		BandLow:    why.BandLow,
		BandHigh:   why.BandHigh,
	})
}

// RecordOracle stores ground truth for one job and scores any
// predictions already recorded for it. Oracles take precedence over
// observed outcomes as the label source, so engines that know ground
// truth (the simulator) should record oracles before predictions.
func (q *QualityAudit) RecordOracle(o OracleRecord) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, dup := q.oracles[o.Job]; dup {
		return
	}
	q.oracles[o.Job] = o
	if !o.WouldReach {
		q.poorN++
	}
	if out, ok := q.outcomes[o.Job]; ok && out.FinalState == "terminated" {
		q.termN++
		if !o.WouldReach {
			q.truePoorN++
		}
	}
	if !q.scored[o.Job] {
		q.scored[o.Job] = true
		for _, i := range q.predIdx[o.Job] {
			q.scorePred(q.preds[i])
		}
	}
	q.refreshGaugesLocked()
}

// RecordOutcome stores how a job ended. For jobs without an oracle the
// outcome becomes the label source and pending predictions are scored
// against it.
func (q *QualityAudit) RecordOutcome(o OutcomeRecord) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, dup := q.outcomes[o.Job]; dup {
		return
	}
	q.outcomes[o.Job] = o
	q.outcomesC.Inc()
	if or, ok := q.oracles[o.Job]; ok {
		if o.FinalState == "terminated" {
			q.termN++
			if !or.WouldReach {
				q.truePoorN++
			}
		}
	} else if !q.scored[o.Job] {
		q.scored[o.Job] = true
		for _, i := range q.predIdx[o.Job] {
			q.scorePred(q.preds[i])
		}
	}
	q.refreshGaugesLocked()
}

// RecordBest notes a new global best metric (normalized).
func (q *QualityAudit) RecordBest(t time.Time, job string, metric float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.best); n > 0 && metric <= q.best[n-1].Metric {
		return
	}
	q.best = append(q.best, BestSample{TMS: t.UnixMilli(), Job: job, Metric: metric})
}

// RecordPool samples the pool occupancy split.
func (q *QualityAudit) RecordPool(t time.Time, promising, opportunistic, poor int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.pools.offer(PoolSample{TMS: t.UnixMilli(), Promising: promising, Opportunistic: opportunistic, Poor: poor})
	q.mu.Unlock()
}

// scorePred folds one prediction into the running joins; callers hold
// q.mu and guarantee the job's label source exists.
func (q *QualityAudit) scorePred(p PredictionRecord) {
	label, realized, ok := q.labelLocked(p.Job)
	if !ok {
		return
	}
	diff := p.Confidence - label
	q.brierSum += diff * diff
	q.brierN++
	if p.BandHigh > p.BandLow {
		q.bandN++
		if realized >= p.BandLow && realized <= p.BandHigh {
			q.bandCovered++
		}
	}
	// ERT error needs per-epoch training-time ground truth: only jobs
	// whose oracle says they reach, from predictions made before the
	// reach epoch, excluding budget-truncated estimates.
	or, ok := q.oracles[p.Job]
	if !ok || !or.WouldReach || p.Truncated {
		return
	}
	r := or.ReachEpoch
	if r < 1 || r > len(or.CumSeconds) || p.Epoch < 1 || p.Epoch >= r || p.Epoch > len(or.CumSeconds) {
		return
	}
	actual := or.CumSeconds[r-1] - or.CumSeconds[p.Epoch-1]
	if actual <= 0 {
		return
	}
	abs := p.ERTSeconds - actual
	if abs < 0 {
		abs = -abs
	}
	q.ertAbs = append(q.ertAbs, abs)
	q.ertRel = append(q.ertRel, abs/actual)
	q.ertAbsH.Observe(abs)
}

// labelLocked returns the calibration label (1 = reaches target) and
// the realized final normalized metric for one job.
func (q *QualityAudit) labelLocked(job string) (label, realized float64, ok bool) {
	if or, has := q.oracles[job]; has {
		if or.WouldReach {
			label = 1
		}
		return label, or.FinalMetric, true
	}
	if out, has := q.outcomes[job]; has {
		if out.Reached {
			label = 1
		}
		return label, out.Best, true
	}
	return 0, 0, false
}

// refreshGaugesLocked republishes the derived gauges.
func (q *QualityAudit) refreshGaugesLocked() {
	if q.brierN > 0 {
		q.brierG.Set(q.brierSum / float64(q.brierN))
	}
	if q.bandN > 0 {
		q.coverageG.Set(float64(q.bandCovered) / float64(q.bandN))
	}
	if q.termN > 0 {
		q.precG.Set(float64(q.truePoorN) / float64(q.termN))
	}
	if q.poorN > 0 {
		q.recG.Set(float64(q.truePoorN) / float64(q.poorN))
	}
}

// --- Report -----------------------------------------------------------

// ReliabilityBin is one confidence bucket of the reliability diagram.
type ReliabilityBin struct {
	Low            float64 `json:"low"`
	High           float64 `json:"high"`
	Count          int     `json:"count"`
	MeanConfidence float64 `json:"mean_confidence"`
	Observed       float64 `json:"observed_frequency"`
}

// BandCoverage summarizes credible-band calibration.
type BandCoverage struct {
	Count   int     `json:"count"`
	Covered int     `json:"covered"`
	Ratio   float64 `json:"ratio"`
}

// ERTErrorStats holds ERT error percentiles against oracle truth.
type ERTErrorStats struct {
	Count  int     `json:"count"`
	AbsP50 float64 `json:"abs_p50_seconds"`
	AbsP90 float64 `json:"abs_p90_seconds"`
	AbsP99 float64 `json:"abs_p99_seconds"`
	RelP50 float64 `json:"rel_p50"`
	RelP90 float64 `json:"rel_p90"`
	RelP99 float64 `json:"rel_p99"`
}

// EarlyTermStats is the early-termination confusion versus oracle
// ground truth.
type EarlyTermStats struct {
	Terminated int     `json:"terminated"`
	TruePoor   int     `json:"true_poor"`
	FalsePoor  int     `json:"false_poor"`
	PoorTotal  int     `json:"poor_total"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
}

// RegretPoint is one step of the time-to-best regret curve.
type RegretPoint struct {
	TMS    int64   `json:"t_ms"`
	Best   float64 `json:"best"`
	Regret float64 `json:"regret"`
}

// QualityReport is the computed calibration summary, served at
// /debug/obs/quality and rendered by hdreport.
type QualityReport struct {
	Meta               QualityMeta      `json:"meta"`
	Predictions        int              `json:"predictions"`
	DroppedPredictions int64            `json:"dropped_predictions,omitempty"`
	Outcomes           int              `json:"outcomes"`
	Oracles            int              `json:"oracles"`
	Scored             int              `json:"scored"`
	Reliability        []ReliabilityBin `json:"reliability"`
	BrierScore         float64          `json:"brier_score"`
	Band               BandCoverage     `json:"band_coverage"`
	ERTError           ERTErrorStats    `json:"ert_error"`
	EarlyTerm          EarlyTermStats   `json:"early_termination"`
	ChurnTotal         int              `json:"class_churn_total"`
	ChurnedJobs        int              `json:"churned_jobs"`
	OracleBest         float64          `json:"oracle_best,omitempty"`
	TimeToBestMS       int64            `json:"time_to_best_ms,omitempty"`
	Regret             []RegretPoint    `json:"regret,omitempty"`
	PoolTimeline       []PoolSample     `json:"pool_timeline,omitempty"`
}

// reliabilityBins is the fixed bin count of the reliability diagram.
const reliabilityBins = 10

// Report computes the full calibration summary. The output is
// deterministic for a given record sequence: bins are fixed, map
// iterations are sorted, and no wall-clock values appear.
func (q *QualityAudit) Report() *QualityReport {
	if q == nil {
		return &QualityReport{Reliability: make([]ReliabilityBin, reliabilityBins)}
	}
	q.mu.Lock()
	defer q.mu.Unlock()

	rep := &QualityReport{
		Meta:               q.meta,
		Predictions:        len(q.preds),
		DroppedPredictions: q.dropped,
		Outcomes:           len(q.outcomes),
		Oracles:            len(q.oracles),
		ChurnTotal:         q.churnSum,
		ChurnedJobs:        len(q.churn),
	}

	// Reliability diagram + Brier over every scored prediction.
	type binAcc struct {
		n        int
		confSum  float64
		labelSum float64
	}
	bins := make([]binAcc, reliabilityBins)
	for _, p := range q.preds {
		label, _, ok := q.labelLocked(p.Job)
		if !ok || !q.scored[p.Job] {
			continue
		}
		rep.Scored++
		b := int(p.Confidence * reliabilityBins)
		if b >= reliabilityBins {
			b = reliabilityBins - 1
		}
		if b < 0 {
			b = 0
		}
		bins[b].n++
		bins[b].confSum += p.Confidence
		bins[b].labelSum += label
	}
	rep.Reliability = make([]ReliabilityBin, reliabilityBins)
	for i := range bins {
		rb := ReliabilityBin{
			Low:   float64(i) / reliabilityBins,
			High:  float64(i+1) / reliabilityBins,
			Count: bins[i].n,
		}
		if bins[i].n > 0 {
			rb.MeanConfidence = bins[i].confSum / float64(bins[i].n)
			rb.Observed = bins[i].labelSum / float64(bins[i].n)
		}
		rep.Reliability[i] = rb
	}
	if q.brierN > 0 {
		rep.BrierScore = q.brierSum / float64(q.brierN)
	}

	rep.Band = BandCoverage{Count: q.bandN, Covered: q.bandCovered}
	if q.bandN > 0 {
		rep.Band.Ratio = float64(q.bandCovered) / float64(q.bandN)
	}

	rep.ERTError = ERTErrorStats{Count: len(q.ertAbs)}
	if len(q.ertAbs) > 0 {
		abs := append([]float64(nil), q.ertAbs...)
		rel := append([]float64(nil), q.ertRel...)
		sort.Float64s(abs)
		sort.Float64s(rel)
		rep.ERTError.AbsP50 = percentile(abs, 0.50)
		rep.ERTError.AbsP90 = percentile(abs, 0.90)
		rep.ERTError.AbsP99 = percentile(abs, 0.99)
		rep.ERTError.RelP50 = percentile(rel, 0.50)
		rep.ERTError.RelP90 = percentile(rel, 0.90)
		rep.ERTError.RelP99 = percentile(rel, 0.99)
	}

	rep.EarlyTerm = EarlyTermStats{
		Terminated: q.termN,
		TruePoor:   q.truePoorN,
		FalsePoor:  q.termN - q.truePoorN,
		PoorTotal:  q.poorN,
	}
	if q.termN > 0 {
		rep.EarlyTerm.Precision = float64(q.truePoorN) / float64(q.termN)
	}
	if q.poorN > 0 {
		rep.EarlyTerm.Recall = float64(q.truePoorN) / float64(q.poorN)
	}

	// Regret curve: distance of the running best from the best any
	// configuration could have achieved (oracle best when available,
	// else the run's own final best — then the curve measures time to
	// the run's own optimum).
	ceiling := 0.0
	for _, job := range sortedKeysOracle(q.oracles) {
		if b := q.oracles[job].BestMetric; b > ceiling {
			ceiling = b
		}
	}
	if ceiling == 0 {
		for _, s := range q.best {
			if s.Metric > ceiling {
				ceiling = s.Metric
			}
		}
	}
	rep.OracleBest = ceiling
	for _, s := range q.best {
		reg := ceiling - s.Metric
		if reg < 0 {
			reg = 0
		}
		rep.Regret = append(rep.Regret, RegretPoint{TMS: s.TMS, Best: s.Metric, Regret: reg})
	}
	if n := len(q.best); n > 0 {
		rep.TimeToBestMS = q.best[n-1].TMS
	}
	rep.PoolTimeline = q.pools.snapshot()
	return rep
}

// percentile returns the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedKeysOracle(m map[string]OracleRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- JSONL serialization ----------------------------------------------

// qualityLine is one line of the quality audit log; exactly one of the
// payload pointers is set, selected by Kind.
type qualityLine struct {
	Kind    string            `json:"kind"` // meta|oracle|pred|outcome|best|pool
	Meta    *QualityMeta      `json:"meta,omitempty"`
	Oracle  *OracleRecord     `json:"oracle,omitempty"`
	Pred    *PredictionRecord `json:"pred,omitempty"`
	Outcome *OutcomeRecord    `json:"outcome,omitempty"`
	Best    *BestSample       `json:"best,omitempty"`
	Pool    *PoolSample       `json:"pool,omitempty"`
}

// WriteLog serializes the audit as JSON lines: meta first, then
// oracles (so replay scores predictions against ground truth exactly
// as the original run did), then predictions, outcomes, best samples,
// and pool samples. The byte output is deterministic for a given
// record sequence.
func (q *QualityAudit) WriteLog(w io.Writer) error {
	if q == nil {
		return nil
	}
	// Snapshot the record set under the lock, serialize outside it:
	// writing to a slow sink must not stall recording.
	q.mu.Lock()
	lines := make([]qualityLine, 0, 1+len(q.oracles)+len(q.preds)+len(q.outcomes)+len(q.best))
	meta := q.meta
	lines = append(lines, qualityLine{Kind: "meta", Meta: &meta})
	for _, job := range sortedKeysOracle(q.oracles) {
		o := q.oracles[job]
		lines = append(lines, qualityLine{Kind: "oracle", Oracle: &o})
	}
	for i := range q.preds {
		p := q.preds[i]
		lines = append(lines, qualityLine{Kind: "pred", Pred: &p})
	}
	outJobs := make([]string, 0, len(q.outcomes))
	for job := range q.outcomes {
		outJobs = append(outJobs, job)
	}
	sort.Strings(outJobs)
	for _, job := range outJobs {
		o := q.outcomes[job]
		lines = append(lines, qualityLine{Kind: "outcome", Outcome: &o})
	}
	for i := range q.best {
		b := q.best[i]
		lines = append(lines, qualityLine{Kind: "best", Best: &b})
	}
	for _, p := range q.pools.snapshot() {
		p := p
		lines = append(lines, qualityLine{Kind: "pool", Pool: &p})
	}
	q.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range lines {
		if err := enc.Encode(lines[i]); err != nil {
			return fmt.Errorf("obs: quality log: %w", err)
		}
	}
	return bw.Flush()
}

// ReadQualityLog reconstructs an audit by replaying a quality log.
// Unknown line kinds are skipped so newer logs stay readable.
func ReadQualityLog(r io.Reader) (*QualityAudit, error) {
	q := NewQualityAudit(QualityMeta{})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l qualityLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("obs: quality log line %d: %w", n, err)
		}
		switch {
		case l.Kind == "meta" && l.Meta != nil:
			q.SetMeta(*l.Meta)
		case l.Kind == "oracle" && l.Oracle != nil:
			q.RecordOracle(*l.Oracle)
		case l.Kind == "pred" && l.Pred != nil:
			q.RecordPrediction(*l.Pred)
		case l.Kind == "outcome" && l.Outcome != nil:
			q.RecordOutcome(*l.Outcome)
		case l.Kind == "best" && l.Best != nil:
			q.mu.Lock()
			q.best = append(q.best, *l.Best)
			q.mu.Unlock()
		case l.Kind == "pool" && l.Pool != nil:
			q.mu.Lock()
			q.pools.offer(*l.Pool)
			q.mu.Unlock()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: quality log: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("obs: quality log is empty")
	}
	return q, nil
}

// sampleRing bounds the pool timeline with the same stride-doubling
// thinning the history store uses: accept every stride-th offer; at
// capacity keep even-indexed points and double the stride. The kept
// set depends only on the offer sequence.
type sampleRing struct {
	cap    int
	stride int64
	seen   int64
	pts    []PoolSample
}

func newSampleRing(capacity int) *sampleRing {
	if capacity < 2 {
		capacity = 2
	}
	return &sampleRing{cap: capacity, stride: 1}
}

func (s *sampleRing) offer(p PoolSample) {
	idx := s.seen
	s.seen++
	if idx%s.stride != 0 {
		return
	}
	s.pts = append(s.pts, p)
	if len(s.pts) >= s.cap {
		kept := s.pts[:0]
		for i := 0; i < len(s.pts); i += 2 {
			kept = append(kept, s.pts[i])
		}
		s.pts = kept
		s.stride *= 2
	}
}

func (s *sampleRing) snapshot() []PoolSample {
	return append([]PoolSample(nil), s.pts...)
}
