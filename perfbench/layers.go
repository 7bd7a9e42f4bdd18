package main

import (
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// retimeSamples caps how many captured fit inputs the traced run
// re-times; at the paper budget each fit costs about a second.
const retimeSamples = 6

// fitInput is what POP's estimate saw at one boundary decision,
// captured so the traced run can re-time the curve and core functions
// on the workload's own data.
type fitInput struct {
	job       string
	norm      []float64
	maxEpoch  int
	target    float64 // normalized
	epochDur  time.Duration
	remaining time.Duration
	slots     int
}

// captureFit records the inputs of the fit POP is about to run for ev,
// when it will run one (enough history, target not yet reached).
func captureFit(ctx policy.Context, ev sched.Event) (fitInput, bool) {
	info := ctx.Info()
	raw := ctx.DB().History(ev.Job)
	if len(raw) < curve.MinObservations {
		return fitInput{}, false
	}
	target := info.Normalize(info.Target)
	norm := make([]float64, len(raw))
	for i, v := range raw {
		norm[i] = info.Normalize(v)
		if norm[i] >= target {
			return fitInput{}, false
		}
	}
	dur, ok := ctx.DB().AvgEpochDuration(ev.Job)
	if !ok {
		return fitInput{}, false
	}
	return fitInput{
		job: string(ev.Job), norm: norm, maxEpoch: info.MaxEpoch, target: target,
		epochDur: dur, remaining: info.MaxDuration - ctx.Now().Sub(ctx.Start()), slots: info.TotalSlots,
	}, true
}

// retimeCurveCore re-runs the public curve and core functions on the
// captured inputs: one fit, one confidence sweep and one ERT estimate
// per input, then the slot division over all the estimates.
func retimeCurveCore(o *outcome, cfg curve.Config, in []fitInput) {
	if len(in) == 0 {
		return
	}
	pred, err := curve.NewPredictor(cfg)
	if err != nil {
		return
	}
	var fitMs, sweepMs, estUs, allocUs []float64
	var ests []core.Estimate
	for i, f := range in {
		t0 := time.Now()
		post, err := pred.Fit(f.norm, f.maxEpoch, int64(i+1))
		fitMs = append(fitMs, ms(time.Since(t0)))
		if err != nil {
			continue
		}
		cur := len(f.norm)
		t0 = time.Now()
		probs := post.ProbSweep(cur, f.maxEpoch, f.target)
		sweepMs = append(sweepMs, ms(time.Since(t0)))
		prob := func(from, to int) []float64 { return probs[from-cur : to-cur+1] }
		t0 = time.Now()
		ests = append(ests, core.EstimateERTBatch(f.job, prob, cur, f.maxEpoch, f.epochDur, f.remaining))
		estUs = append(estUs, us(time.Since(t0)))
	}
	for i := 0; i < 100 && len(ests) > 0; i++ {
		t0 := time.Now()
		core.AllocateSlots(ests, in[0].slots, 1)
		allocUs = append(allocUs, us(time.Since(t0)))
	}
	o.layers["curve.fit_ms_p50"] = median(fitMs)
	o.layers["curve.sweep_ms_p50"] = median(sweepMs)
	o.layers["core.estimate_us_p50"] = median(estUs)
	o.layers["core.allocate_us_p50"] = median(allocUs)
}

// putWorkloadLayers reports the trainers' own work.
func (p *jobProbe) putWorkloadLayers(o *outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o.layers["workload.epochs"] = float64(p.steps)
	o.layers["workload.step_us_p50"] = median(p.stepUs)
}
