package policy

import (
	"fmt"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// POPOptions configures the POP policy. The zero value gives the
// paper's production settings.
type POPOptions struct {
	// Boundary is the evaluation boundary b; 0 uses the workload
	// default (10 epochs supervised, 2,000 RL iterations).
	Boundary int
	// KillGrace is the number of epochs a job may stay below the kill
	// threshold before being pruned; 0 uses the boundary.
	KillGrace int
	// ConfidenceFloor prunes jobs whose confidence of reaching the
	// target falls below it; 0 uses the paper's 0.05.
	ConfidenceFloor float64
	// MinPruneEpochs delays confidence-floor pruning until a job has
	// this many epochs of history; 0 uses twice the evaluation
	// boundary. Learning-curve posteriors from a single boundary of
	// observations are too uncertain to justify termination (the same
	// reasoning behind EarlyTerm's larger b = 30).
	MinPruneEpochs int
	// SlotsPerJob is k, the dedicated slots per promising job
	// (1 = sequential training).
	SlotsPerJob int
	// Predictor is the MCMC budget; zero value uses curve.FastConfig.
	Predictor curve.Config
	// StaticThreshold, when positive, disables the dynamic
	// desired/deserved threshold and classifies jobs promising at a
	// fixed confidence — the §2.2c ablation.
	StaticThreshold float64
	// InstantAccuracy, when true, replaces learning-curve prediction
	// with the instantaneous metric as the confidence signal — the
	// §2.2a ablation (what TuPAQ-style classification would do).
	InstantAccuracy bool
	// DynamicTarget enables the §9 extension: once the target is
	// reached, keep raising it so exploration continues to
	// differentiate configurations.
	DynamicTarget bool
	// DynamicTargetStep is the normalized increment for
	// DynamicTarget; 0 uses 0.02.
	DynamicTargetStep float64
	// DisableKillThreshold turns off domain-knowledge pruning — the
	// §2.1 ablation.
	DisableKillThreshold bool
}

// credibleBandLow / credibleBandHigh are the posterior quantiles of
// the 90% credible band stamped on estimates and decision rationales.
const (
	credibleBandLow  = 0.05
	credibleBandHigh = 0.95
)

// POP is the paper's scheduling algorithm (§3, §5.3): Promising /
// Opportunistic / Poor classification driven by probabilistic
// learning-curve prediction, with dynamic division of slots between an
// exploitation pool (dedicated to promising jobs, priority-labelled)
// and an exploration pool (round-robin over opportunistic jobs via
// suspend/resume), plus early termination of poor configurations from
// domain knowledge.
type POP struct {
	opts      POPOptions
	predictor *curve.Predictor
	// fits counts learning-curve fits. It starts as a standalone
	// counter and is rebound to the registry's
	// hyperdrive_mcmc_fits_total by Instrument, so Fits and the metric
	// share one source of truth.
	fits *obs.Counter

	mu        sync.Mutex
	estimates map[sched.JobID]core.Estimate
	curTarget float64 // normalized; moves when DynamicTarget is on
	targetSet bool
}

// NewPOP builds a POP policy.
func NewPOP(opts POPOptions) (*POP, error) {
	if opts.ConfidenceFloor == 0 {
		opts.ConfidenceFloor = core.ConfidenceFloor
	}
	if opts.ConfidenceFloor < 0 || opts.ConfidenceFloor >= 1 {
		return nil, fmt.Errorf("policy: pop confidence floor %v out of [0, 1)", opts.ConfidenceFloor)
	}
	if opts.SlotsPerJob == 0 {
		opts.SlotsPerJob = 1
	}
	if opts.SlotsPerJob < 0 {
		return nil, fmt.Errorf("policy: pop slots per job %d must be positive", opts.SlotsPerJob)
	}
	if opts.DynamicTargetStep == 0 {
		opts.DynamicTargetStep = 0.02
	}
	if opts.Predictor.Walkers == 0 {
		opts.Predictor = curve.FastConfig()
	}
	p, err := curve.NewPredictor(opts.Predictor)
	if err != nil {
		return nil, err
	}
	return &POP{
		opts:      opts,
		predictor: p,
		fits:      obs.NewCounter(),
		estimates: make(map[sched.JobID]core.Estimate),
	}, nil
}

// Instrument binds POP's telemetry to a registry: the fit counter
// migrates onto hyperdrive_mcmc_fits_total and the predictor records
// fit durations. Engines call this once at setup, before the run
// starts (counts accrued earlier stay on the old counter).
func (p *POP) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	p.fits = r.Counter(obs.MCMCFitsTotal)
	p.predictor.Instrument(r)
}

// Name implements Policy.
func (*POP) Name() string { return "pop" }

// AllocateJobs implements Policy: the idle queue is priority-ordered
// by the labels POP assigns, so greedy allocation starts the most
// promising work first.
func (*POP) AllocateJobs(ctx Context) { greedyAllocate(ctx) }

// ApplicationStat implements Policy.
func (*POP) ApplicationStat(Context, sched.Event) {}

// OnIterationFinish implements Policy. At each evaluation boundary the
// §5.3 sequence runs: kill-threshold check, learning-curve fit and ERT
// estimation, confidence-floor pruning, desired/deserved slot
// division, promising-job labelling, and suspension of opportunistic
// jobs so exploration rotates.
func (p *POP) OnIterationFinish(ctx Context, ev sched.Event) sched.Decision {
	info := ctx.Info()
	bnd := boundary(p.opts.Boundary, info)
	if ev.Epoch%bnd != 0 || ev.Epoch >= info.MaxEpoch {
		return sched.Continue
	}
	why := ev.Rationale
	if why == nil {
		why = new(sched.Rationale)
	}
	why.Evaluated = true

	// 1. Domain-knowledge pruning before any prediction work.
	history := ctx.DB().History(ev.Job)
	if !p.opts.DisableKillThreshold {
		grace := p.opts.KillGrace
		if grace == 0 {
			grace = bnd
		}
		if kd := core.ShouldKill(history, info.KillThreshold, grace); kd.Kill {
			p.dropEstimate(ev.Job)
			why.Cause = sched.CauseKillThreshold
			why.KillThreshold = info.KillThreshold
			return sched.Terminate
		}
	}

	// 2. Estimate expected remaining time and confidence.
	est := p.estimate(ctx, ev.Job, history)
	p.mu.Lock()
	p.estimates[ev.Job] = est
	p.mu.Unlock()
	why.Estimated = true
	why.Confidence, why.ERT, why.EpochDuration = est.Confidence, est.ERT, est.EpochDuration
	if est.BandHigh > est.BandLow {
		why.BandLow, why.BandHigh = est.BandLow, est.BandHigh
	}
	why.Truncated = est.Truncated

	// 3. Confidence-floor pruning: unlikely to reach the target. Not
	// applied before MinPruneEpochs of history: one boundary of
	// observations cannot support a confident termination.
	minPrune := p.opts.MinPruneEpochs
	if minPrune == 0 {
		minPrune = 2 * bnd
	}
	if ev.Epoch >= minPrune && est.Confidence < p.opts.ConfidenceFloor {
		p.dropEstimate(ev.Job)
		why.Cause = sched.CauseConfidenceFloor
		why.ConfidenceFloor = p.opts.ConfidenceFloor
		return sched.Terminate
	}

	// 4-5. Slot division and classification across all active jobs.
	alloc := p.allocate(ctx)
	why.Allocated = true
	why.Threshold = alloc.Threshold
	why.PromisingJobs, why.OpportunisticJobs = len(alloc.Promising), len(alloc.Opportunistic)
	why.PromisingSlots = alloc.PromisingSlots
	for _, e := range alloc.Promising {
		ctx.LabelJob(sched.JobID(e.JobID), e.Confidence)
	}

	promising := false
	for _, e := range alloc.Promising {
		if e.JobID == string(ev.Job) {
			promising = true
			break
		}
	}
	if promising {
		why.Class = sched.ClassPromising
		return sched.Continue
	}
	why.Class = sched.ClassOpportunistic
	// 6. Opportunistic: rotate the exploration pool. Suspending only
	// makes sense when another job is waiting for the slot.
	if ctx.IdleJobs() > 0 {
		return sched.Suspend
	}
	return sched.Continue
}

// Allocation exposes POP's current slot division for observability
// (Figure 4) without mutating policy state.
func (p *POP) Allocation(ctx Context) core.Allocation { return p.allocate(ctx) }

// Estimates returns a snapshot of the per-job estimates.
func (p *POP) Estimates() map[sched.JobID]core.Estimate {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[sched.JobID]core.Estimate, len(p.estimates))
	for k, v := range p.estimates {
		out[k] = v
	}
	return out
}

// Fits implements FitCounter.
func (p *POP) Fits() *obs.Counter { return p.fits }

// estimate computes the §3.1 estimate for one job.
func (p *POP) estimate(ctx Context, job sched.JobID, rawHistory []float64) core.Estimate {
	info := ctx.Info()
	target := p.target(info)
	remaining := info.MaxDuration - ctx.Now().Sub(ctx.Start())
	epochDur, okDur := ctx.DB().AvgEpochDuration(job)
	curEpoch := len(rawHistory)

	if p.opts.InstantAccuracy {
		// Ablation: the instantaneous normalized metric stands in for
		// prediction confidence; no trajectory information.
		conf := 0.0
		if len(rawHistory) > 0 && target > 0 {
			conf = info.Normalize(rawHistory[len(rawHistory)-1]) / target
			if conf > 1 {
				conf = 1
			}
		}
		ert := time.Duration(float64(remaining) * (1 - conf))
		return core.Estimate{JobID: string(job), Confidence: conf, ERT: ert, EpochDuration: epochDur}
	}

	if !okDur || len(rawHistory) < curve.MinObservations || remaining <= 0 {
		return core.Estimate{JobID: string(job), ERT: remaining, Truncated: true, EpochDuration: epochDur}
	}
	norm := make([]float64, len(rawHistory))
	best := 0.0
	for i, v := range rawHistory {
		norm[i] = info.Normalize(v)
		if norm[i] > best {
			best = norm[i]
		}
	}
	if best >= target {
		// Already at the target: maximal confidence, nothing left to
		// wait for. (Normally the experiment's stop condition fires
		// first; this guards reruns with raised targets.)
		return core.Estimate{JobID: string(job), Confidence: 1, EpochDuration: epochDur}
	}
	post, err := p.predictor.Fit(norm, info.MaxEpoch, seedFor(job))
	p.fits.Inc()
	if err != nil {
		return core.Estimate{JobID: string(job), ERT: remaining, Truncated: true, EpochDuration: epochDur}
	}
	// Batch path: one sample-major posterior sweep per boundary instead
	// of one full posterior pass per queried epoch (bit-identical to the
	// per-epoch ProbAtLeast path).
	prob := func(from, to int) []float64 { return post.ProbSweep(from, to, target) }
	est := core.EstimateERTBatch(string(job), prob, curEpoch, info.MaxEpoch, epochDur, remaining)
	// The 90% credible band for the final metric rides along so the
	// quality audit can score band coverage against realized outcomes.
	est.BandLow, est.BandHigh = post.CredibleBand(info.MaxEpoch, credibleBandLow, credibleBandHigh)
	return est
}

// allocate runs the §3.2 slot division over the active jobs' cached
// estimates.
func (p *POP) allocate(ctx Context) core.Allocation {
	info := ctx.Info()
	active := ctx.ActiveJobs()
	ests := make([]core.Estimate, 0, len(active))
	p.mu.Lock()
	for _, id := range active {
		if e, ok := p.estimates[id]; ok {
			ests = append(ests, e)
		}
	}
	p.mu.Unlock()

	if p.opts.StaticThreshold > 0 {
		// Ablation: fixed threshold instead of the dynamic argmax.
		alloc := core.Allocation{Threshold: p.opts.StaticThreshold}
		for _, e := range ests {
			if e.Confidence >= p.opts.StaticThreshold && e.Satisfying() {
				alloc.Promising = append(alloc.Promising, e)
			} else {
				alloc.Opportunistic = append(alloc.Opportunistic, e)
			}
		}
		alloc.PromisingSlots = len(alloc.Promising) * p.opts.SlotsPerJob
		if alloc.PromisingSlots > info.TotalSlots {
			alloc.PromisingSlots = info.TotalSlots
		}
		return alloc
	}
	return core.AllocateSlots(ests, info.TotalSlots, p.opts.SlotsPerJob)
}

// target returns the normalized target, applying the dynamic-target
// extension when enabled.
func (p *POP) target(info Info) float64 {
	base := info.Normalize(info.Target)
	if !p.opts.DynamicTarget {
		return base
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.targetSet {
		p.curTarget = base
		p.targetSet = true
	}
	return p.curTarget
}

// ObserveBest feeds the dynamic-target extension: when the observed
// best clears the current target, the target moves up. Engines call
// this on every stat report when the extension is enabled.
func (p *POP) ObserveBest(info Info, rawBest float64) {
	if !p.opts.DynamicTarget {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.targetSet {
		p.curTarget = info.Normalize(info.Target)
		p.targetSet = true
	}
	if n := info.Normalize(rawBest); n >= p.curTarget {
		p.curTarget = n + p.opts.DynamicTargetStep
		if p.curTarget > 1 {
			p.curTarget = 1
		}
	}
}

func (p *POP) dropEstimate(job sched.JobID) {
	p.mu.Lock()
	delete(p.estimates, job)
	p.mu.Unlock()
}

var (
	_ Policy     = (*POP)(nil)
	_ FitCounter = (*POP)(nil)
)
