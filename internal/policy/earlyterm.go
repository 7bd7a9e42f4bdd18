package policy

import (
	"fmt"

	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// EarlyTermOptions configures the EarlyTerm policy.
type EarlyTermOptions struct {
	// Delta is the termination threshold on P(y(mmax) >= yhat); the
	// paper follows Domhan et al. and uses 0.05.
	Delta float64
	// Boundary is the evaluation boundary b; 0 uses 30 epochs for
	// supervised learning per the paper, or the workload default when
	// that is larger (RL uses 2,000 iterations = the workload value).
	Boundary int
	// Predictor is the MCMC budget; zero value uses curve.FastConfig.
	Predictor curve.Config
}

// EarlyTerm is the parallel version of Domhan et al.'s "predictive
// termination criterion" (§5.3): at each boundary it fits the
// learning-curve posterior and terminates the job if the probability
// of ever beating the global best is below delta. Unlike POP it never
// suspends or prioritizes — every surviving job runs to completion.
type EarlyTerm struct {
	delta     float64
	boundary  int
	predictor *curve.Predictor
	fits      *obs.Counter
}

// DefaultEarlyTermBoundarySL is the supervised-learning evaluation
// boundary used by the paper for EarlyTerm (b = 30).
const DefaultEarlyTermBoundarySL = 30

// NewEarlyTerm builds an EarlyTerm policy.
func NewEarlyTerm(opts EarlyTermOptions) (*EarlyTerm, error) {
	if opts.Delta == 0 {
		opts.Delta = 0.05
	}
	if opts.Delta < 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("policy: earlyterm delta %v out of (0, 1)", opts.Delta)
	}
	if opts.Predictor.Walkers == 0 {
		opts.Predictor = curve.FastConfig()
	}
	p, err := curve.NewPredictor(opts.Predictor)
	if err != nil {
		return nil, err
	}
	return &EarlyTerm{delta: opts.Delta, boundary: opts.Boundary, predictor: p, fits: obs.NewCounter()}, nil
}

// Instrument binds EarlyTerm's fit telemetry to a registry (see
// POP.Instrument for the contract).
func (e *EarlyTerm) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	e.fits = r.Counter(obs.MCMCFitsTotal)
	e.predictor.Instrument(r)
}

// Name implements Policy.
func (*EarlyTerm) Name() string { return "earlyterm" }

// AllocateJobs implements Policy.
func (*EarlyTerm) AllocateJobs(ctx Context) { greedyAllocate(ctx) }

// ApplicationStat implements Policy.
func (*EarlyTerm) ApplicationStat(Context, sched.Event) {}

// OnIterationFinish implements Policy.
func (e *EarlyTerm) OnIterationFinish(ctx Context, ev sched.Event) sched.Decision {
	info := ctx.Info()
	bnd := e.boundary
	if bnd == 0 {
		if info.Reward {
			// RL: prior work gives no guidance, so the paper uses the
			// same 2,000-iteration boundary as POP (§5.3).
			bnd = boundary(0, info)
		} else {
			bnd = DefaultEarlyTermBoundarySL
		}
	}
	if ev.Epoch%bnd != 0 || ev.Epoch >= info.MaxEpoch {
		return sched.Continue
	}
	globalBest, bestJob, ok := ctx.DB().GlobalBest()
	if !ok || bestJob == ev.Job {
		// The current leader is never predictively terminated.
		return sched.Continue
	}
	raw := ctx.DB().History(ev.Job)
	if len(raw) < curve.MinObservations {
		return sched.Continue
	}
	norm := make([]float64, len(raw))
	for i, v := range raw {
		norm[i] = info.Normalize(v)
	}
	post, err := e.predictor.Fit(norm, info.MaxEpoch, seedFor(ev.Job))
	e.fits.Inc()
	if err != nil {
		return sched.Continue
	}
	p := post.ProbAtLeast(info.MaxEpoch, info.Normalize(globalBest))
	why := ev.Rationale
	if why == nil {
		why = new(sched.Rationale)
	}
	why.Evaluated, why.Compared, why.ProbBeatsBest = true, true, p
	if p < e.delta {
		why.Cause = sched.CausePredictive
		return sched.Terminate
	}
	return sched.Continue
}

// Fits implements FitCounter.
func (e *EarlyTerm) Fits() *obs.Counter { return e.fits }

// seedFor derives a deterministic MCMC seed from a job ID.
func seedFor(id sched.JobID) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(id); i++ {
		h ^= int64(id[i])
		h *= 1099511628211
	}
	return h
}

var (
	_ Policy     = (*EarlyTerm)(nil)
	_ FitCounter = (*EarlyTerm)(nil)
)
