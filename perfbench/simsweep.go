package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/sim"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// sim-sweep replays two traces, CIFAR-10 on 4 machines and LunarLander
// on 15 (the paper's two clusters), under POP, EarlyTerm, Bandit and
// Default with StopAtTarget and the figures' fast MCMC budget.
//
// The configuration populations are fixed; --seed draws each epoch's
// duration jitter. Drawing the populations from the seed instead moved
// POP's work between 8 and 52 curve fits per trace, so that the sweep's
// wall time differed 5x between seeds, far more than any run we can
// afford averages out (README.md, "Inputs").
const (
	simCIFARConfigs = 40
	simLunarConfigs = 16
	simMinWinners   = 2
	simJitter       = 0.10 // each epoch's duration is scaled by 1 ± U(0, simJitter)
)

var simPolicies = []string{"pop", "earlyterm", "bandit", "default"}

type simInput struct {
	tr       *trace.Trace
	machines int
}

// population collects n configurations of the named workload, drawn
// from the first population seed (counting up from 1) whose trace has
// at least minWinners target-reaching configurations.
func population(reg *workload.Registry, name string, n, minWinners int) (*trace.Trace, error) {
	spec, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	for pop := int64(1); pop <= 100; pop++ {
		rng := rand.New(rand.NewSource(pop))
		cfgs := make([]param.Config, n)
		seeds := make([]int64, n)
		for i := range cfgs {
			cfgs[i] = spec.Space().Sample(rng)
			seeds[i] = pop*1000 + int64(i)
		}
		tr, err := trace.Collect(spec, cfgs, seeds)
		if err != nil {
			return nil, err
		}
		if winners(tr) >= minWinners {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("no %s population with %d winners", name, minWinners)
}

func winners(tr *trace.Trace) int {
	w := 0
	for _, j := range tr.Jobs {
		for _, s := range j.Samples {
			if s.Metric >= tr.Target {
				w++
				break
			}
		}
	}
	return w
}

// jitter scales every epoch duration by a seeded factor in
// [1-simJitter, 1+simJitter].
func jitter(tr *trace.Trace, rng *rand.Rand) {
	for j := range tr.Jobs {
		for k := range tr.Jobs[j].Samples {
			s := &tr.Jobs[j].Samples[k]
			s.DurationNs = int64(float64(s.DurationNs) * (1 + simJitter*(2*rng.Float64()-1)))
		}
	}
}

func buildSimInputs(reg *workload.Registry, seed int64) ([]simInput, error) {
	cifar, err := population(reg, "cifar10", simCIFARConfigs, simMinWinners)
	if err != nil {
		return nil, err
	}
	lunar, err := population(reg, "lunarlander", simLunarConfigs, simMinWinners)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	jitter(cifar, rng)
	jitter(lunar, rng)
	return []simInput{{cifar, 4}, {lunar, 15}}, nil
}

func newSimPolicy(name string) (policy.Policy, error) {
	switch name {
	case "pop":
		return policy.NewPOP(policy.POPOptions{Predictor: curve.FastConfig()})
	case "earlyterm":
		return policy.NewEarlyTerm(policy.EarlyTermOptions{Predictor: curve.FastConfig()})
	case "bandit":
		return policy.NewBandit(policy.BanditOptions{})
	default:
		return policy.NewDefault(), nil
	}
}

func runSimSweep(p runParams) (*outcome, error) {
	o := newOutcome()
	// Trace collection is where this workload steps trainers; the
	// traced run counts the last set-up's.
	probe := newJobProbe(nil, 2, 1, true)
	var setups []float64
	var inputs []simInput
	for i := 0; i < setupReps; i++ {
		reg := workload.NewRegistry()
		if p.traced && i == setupReps-1 {
			reg = probe.registry()
		}
		t0 := time.Now()
		in, err := buildSimInputs(reg, p.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inputs = in
	}
	o.e2e["setup_s"] = median(setups)

	var (
		makespans, cpus, engine []float64
		boundaryMs, boundaryP50 []float64
		epochP50                []float64
		polEpoch                []float64
		polAlloc                []float64
		ttt                     = -1.0
		heap                    float64
		fits                    int
		captured                []fitInput
	)
	rt0 := snapRuntime()
	err := rounds(p.seconds, func() error {
		wall0, cpu0 := time.Now(), cpuSeconds()
		var inPolicy time.Duration
		var roundBoundary, roundEpoch []float64
		var roundTTT float64
		roundFits := 0
		for _, in := range inputs {
			for _, name := range simPolicies {
				pol, err := newSimPolicy(name)
				if err != nil {
					return err
				}
				tp := newTimedPolicy(pol, in.tr.EvalBoundary)
				if p.traced && name == "pop" && len(captured) < retimeSamples {
					tp.onBoundary = func(ctx policy.Context, ev sched.Event) {
						if f, ok := captureFit(ctx, ev); ok && len(captured) < retimeSamples {
							captured = append(captured, f)
						}
					}
				}
				o.attempted++
				res, err := sim.Run(sim.Options{Trace: in.tr, Machines: in.machines, Policy: tp, StopAtTarget: true})
				if err != nil {
					o.failed++
					continue
				}
				inPolicy += tp.total
				roundFits += res.Fits
				polEpoch = append(polEpoch, tp.epochUs...)
				polAlloc = append(polAlloc, tp.allocUs...)
				for _, e := range tp.eventUs {
					roundEpoch = append(roundEpoch, e/1e3)
				}
				if name == "pop" {
					roundBoundary = append(roundBoundary, tp.boundaryMs...)
					if res.Reached {
						roundTTT += res.TimeToTarget.Hours()
					} else {
						roundTTT += res.Duration.Hours()
					}
				}
				for _, msg := range checkProperties(name, in.tr, res) {
					o.check(false, "%s %s", in.tr.Workload, msg)
				}
				if name == "default" {
					for _, msg := range checkFIFO(in.tr, in.machines, 7*24*time.Hour, res) {
						o.check(false, "%s %s", in.tr.Workload, msg)
					}
				}
				if name == "pop" {
					for _, msg := range checkTargetTime(name, in.tr, res) {
						o.check(false, "%s %s", in.tr.Workload, msg)
					}
				}
			}
		}
		wall := time.Since(wall0)
		makespans = append(makespans, wall.Seconds())
		cpus = append(cpus, cpuSeconds()-cpu0)
		engine = append(engine, (wall - inPolicy).Seconds())
		boundaryMs = append(boundaryMs, roundBoundary...)
		boundaryP50 = append(boundaryP50, median(roundBoundary))
		epochP50 = append(epochP50, median(roundEpoch))
		o.check(ttt < 0 || ttt == roundTTT, "time-to-target %v h differs from an earlier round's %v h on identical inputs", roundTTT, ttt)
		ttt = roundTTT
		fits = roundFits
		if len(makespans) == 1 {
			heap = retainedHeapMB()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt1 := snapRuntime()

	o.e2e["makespan_s"] = median(makespans)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["time_to_target_h"] = ttt
	// The engine blocks on each verdict exactly as a live job does, so
	// the policy up-call's wall time is the simulator's turnaround.
	// Boundary turnaround is POP's: the other policies decide there as
	// cheaply as at any epoch.
	o.e2e["boundary_turnaround_ms_p50"] = median(boundaryP50)
	o.e2e["epoch_turnaround_ms_p50"] = median(epochP50)
	// The live heap after the first round: later rounds' count depends
	// on timing.
	o.e2e["heap_retained_mb"] = heap

	if p.traced {
		o.layers["tracing.makespan_s"] = median(makespans)
		o.layers["curve.fits"] = float64(fits)
		o.layers["policy.boundary_ms_p50"] = median(boundaryMs)
		o.layers["policy.epoch_us_p50"] = median(polEpoch)
		o.layers["policy.allocate_us_p50"] = median(polAlloc)
		o.layers["sim.engine_s"] = median(engine)
		probe.putWorkloadLayers(o)
		putRuntimeLayers(o, rt0, rt1)
		retimeCurveCore(o, curve.FastConfig(), captured)
	}
	return o, nil
}
