package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// tinyPredictor keeps policy fits cheap in tests.
func tinyPredictor() curve.Config {
	return curve.Config{Walkers: 10, Iters: 40, BurnFrac: 0.5, MaxSamples: 150, StretchA: 2, Seed: 1}
}

// testTrace builds a deterministic CIFAR-10 trace with n configs.
func testTrace(t testing.TB, n int, seed int64) *trace.Trace {
	t.Helper()
	spec := workload.CIFAR10()
	rng := rand.New(rand.NewSource(seed))
	configs := make([]param.Config, n)
	seeds := make([]int64, n)
	for i := range configs {
		configs[i] = spec.Space().Sample(rng)
		seeds[i] = int64(i)
	}
	tr, err := trace.Collect(spec, configs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunValidation(t *testing.T) {
	tr := testTrace(t, 2, 1)
	if _, err := Run(Options{Machines: 1, Policy: policy.NewDefault()}); err == nil {
		t.Fatal("Run accepted nil trace")
	}
	if _, err := Run(Options{Trace: tr, Policy: policy.NewDefault()}); err == nil {
		t.Fatal("Run accepted zero machines")
	}
	if _, err := Run(Options{Trace: tr, Machines: 1}); err == nil {
		t.Fatal("Run accepted nil policy")
	}
}

func TestDefaultRunsEverythingToCompletion(t *testing.T) {
	tr := testTrace(t, 8, 2)
	res, err := Run(Options{Trace: tr, Machines: 3, Policy: policy.NewDefault()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions != 8 || res.Terminations != 0 || res.Suspends != 0 {
		t.Fatalf("default outcome: %+v", res)
	}
	for _, j := range res.Jobs {
		if j.Epochs != tr.MaxEpoch {
			t.Fatalf("job %s ran %d epochs, want %d", j.ID, j.Epochs, tr.MaxEpoch)
		}
		if j.FinalState != sched.Completed {
			t.Fatalf("job %s final state %v", j.ID, j.FinalState)
		}
	}
	// Total busy time equals the sum of all trace durations.
	var want time.Duration
	for _, j := range tr.Jobs {
		for _, s := range j.Samples {
			want += s.Duration()
		}
	}
	var got time.Duration
	for _, j := range res.Jobs {
		got += j.BusyTime
	}
	if got != want {
		t.Fatalf("total busy %v, want %v", got, want)
	}
	// With 3 machines the experiment cannot be shorter than busy/3.
	if res.Duration < want/3 {
		t.Fatalf("duration %v impossibly short for %v of work on 3 machines", res.Duration, want)
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t, 6, 3)
	run := func() *Result {
		res, err := Run(Options{Trace: tr, Machines: 2, Policy: policy.NewDefault()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Best != b.Best || a.Completions != b.Completions {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestStopAtTarget(t *testing.T) {
	// Find a trace seed whose population contains a target-reaching
	// config among the first 30.
	tr := testTrace(t, 30, 7)
	hasWinner := false
	for _, j := range tr.Jobs {
		for _, s := range j.Samples {
			if s.Metric >= tr.Target {
				hasWinner = true
			}
		}
	}
	if !hasWinner {
		t.Skip("trace seed has no winner; population statistics make this rare")
	}
	res, err := Run(Options{Trace: tr, Machines: 4, Policy: policy.NewDefault(), StopAtTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("default search with a winner in the set never reached the target")
	}
	if res.TimeToTarget <= 0 || res.TimeToTarget != res.Duration {
		t.Fatalf("time to target %v, duration %v", res.TimeToTarget, res.Duration)
	}
	if res.Best < tr.Target {
		t.Fatalf("best %v below target %v", res.Best, tr.Target)
	}
}

func TestMaxDurationCutoff(t *testing.T) {
	tr := testTrace(t, 10, 4)
	res, err := Run(Options{
		Trace: tr, Machines: 1, Policy: policy.NewDefault(),
		MaxDuration: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration > 2*time.Hour {
		t.Fatalf("duration %v exceeded Tmax", res.Duration)
	}
	if res.Completions == 10 {
		t.Fatal("10 jobs x 2 hours of training cannot complete on 1 machine in 2 hours")
	}
}

func TestMaxJobsCap(t *testing.T) {
	tr := testTrace(t, 10, 5)
	res, err := Run(Options{Trace: tr, Machines: 2, Policy: policy.NewDefault(), MaxJobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("explored %d jobs, want 3", len(res.Jobs))
	}
}

func TestBanditTerminatesLosers(t *testing.T) {
	tr := testTrace(t, 20, 6)
	b, err := policy.NewBandit(policy.BanditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Trace: tr, Machines: 4, Policy: b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminations == 0 {
		t.Fatal("bandit terminated nothing on a 20-config population")
	}
	// Early termination must save work vs running everything.
	def, err := Run(Options{Trace: tr, Machines: 4, Policy: policy.NewDefault()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration >= def.Duration {
		t.Fatalf("bandit (%v) not faster than default (%v)", res.Duration, def.Duration)
	}
}

func TestPOPEndToEnd(t *testing.T) {
	tr := testTrace(t, 20, 7)
	pop, err := policy.NewPOP(policy.POPOptions{Predictor: tinyPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Trace: tr, Machines: 4, Policy: pop,
		StopAtTarget:    true,
		TrackAllocation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminations == 0 {
		t.Fatal("POP terminated nothing; kill threshold should prune ~32% of configs")
	}
	if res.Fits == 0 {
		t.Fatal("POP never ran a prediction")
	}
	t.Logf("POP: reached=%v ttt=%v suspends=%d terms=%d fits=%d",
		res.Reached, res.TimeToTarget, res.Suspends, res.Terminations, res.Fits)
}

// TestPOPReplayInvariantToPredictorWorkers pins end-to-end schedule
// determinism over the parallel sampler: a whole simulated experiment
// — every fit, estimate, classification, and suspend — is identical
// whether the MCMC worker pool is serial or wide, because posterior
// draws are schedule-independent.
func TestPOPReplayInvariantToPredictorWorkers(t *testing.T) {
	tr := testTrace(t, 16, 7)
	run := func(workers int) *Result {
		cfg := tinyPredictor()
		cfg.Workers = workers
		pop, err := policy.NewPOP(policy.POPOptions{Predictor: cfg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Trace: tr, Machines: 4, Policy: pop, StopAtTarget: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(4)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("simulation diverged across predictor worker counts:\nserial: %+v\nwide:   %+v", serial, wide)
	}
}

func TestPOPBeatsDefaultOnTimeToTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	tr := testTrace(t, 30, 7)
	hasWinner := false
	for _, j := range tr.Jobs {
		for _, s := range j.Samples {
			if s.Metric >= tr.Target {
				hasWinner = true
			}
		}
	}
	if !hasWinner {
		t.Skip("no winner in this trace seed")
	}
	pop, err := policy.NewPOP(policy.POPOptions{Predictor: tinyPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	popRes, err := Run(Options{Trace: tr, Machines: 4, Policy: pop, StopAtTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	defRes, err := Run(Options{Trace: tr, Machines: 4, Policy: policy.NewDefault(), StopAtTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	if !popRes.Reached {
		t.Fatal("POP did not reach the target")
	}
	if defRes.Reached && popRes.TimeToTarget > 2*defRes.TimeToTarget {
		t.Fatalf("POP (%v) dramatically slower than default (%v)", popRes.TimeToTarget, defRes.TimeToTarget)
	}
	t.Logf("time-to-target: pop=%v default=%v", popRes.TimeToTarget, defRes.TimeToTarget)
}

func TestCheckpointAccountingOnSuspend(t *testing.T) {
	tr := testTrace(t, 20, 9)
	pop, err := policy.NewPOP(policy.POPOptions{Predictor: tinyPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	cap9, err := checkpoint.NewCapturer(checkpoint.Framework, 1)
	if err != nil {
		t.Fatal(err)
	}
	var acct checkpoint.Accounting
	res, err := Run(Options{
		Trace: tr, Machines: 2, Policy: pop,
		Checkpointer:         cap9,
		CheckpointAccounting: &acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspends != len(acct.Records()) {
		t.Fatalf("suspends %d but %d checkpoint records", res.Suspends, len(acct.Records()))
	}
}

func TestBlockingPredictionSlowerThanOverlap(t *testing.T) {
	tr := testTrace(t, 12, 11)
	mk := func() policy.Policy {
		p, err := policy.NewEarlyTerm(policy.EarlyTermOptions{Predictor: tinyPredictor()})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	blocking, err := Run(Options{
		Trace: tr, Machines: 2, Policy: mk(),
		PredictionCost: 5 * time.Minute, OverlapPrediction: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := Run(Options{
		Trace: tr, Machines: 2, Policy: mk(),
		PredictionCost: 5 * time.Minute, OverlapPrediction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Fits == 0 {
		t.Skip("no fits happened; cannot compare")
	}
	if blocking.Duration <= overlap.Duration {
		t.Fatalf("blocking prediction (%v) should be slower than overlapped (%v)",
			blocking.Duration, overlap.Duration)
	}
}

// unwrapPolicy embeds a policy the way serving-side wrappers (pause
// control, timing probes) do, exposing it only through Unwrap.
type unwrapPolicy struct{ policy.Policy }

func (u unwrapPolicy) Unwrap() policy.Policy { return u.Policy }

// TestPOPRatioTrackingPopulated runs POP bare and behind an Unwrap
// wrapper: either way the simulator samples POP's slot division and
// publishes classified rows on the job table.
func TestPOPRatioTrackingPopulated(t *testing.T) {
	tr := testTrace(t, 15, 13)
	for _, wrap := range []bool{false, true} {
		pop, err := policy.NewPOP(policy.POPOptions{Predictor: tinyPredictor()})
		if err != nil {
			t.Fatal(err)
		}
		var pol policy.Policy = pop
		if wrap {
			pol = unwrapPolicy{pop}
		}
		reg := obs.NewRegistry()
		res, err := Run(Options{Trace: tr, Machines: 3, Policy: pol, TrackAllocation: true, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ratios) == 0 {
			t.Fatalf("wrapped=%v: no allocation ratio samples recorded", wrap)
		}
		for _, r := range res.Ratios {
			if r.Ratio < 0 || r.Ratio > 1 {
				t.Fatalf("wrapped=%v: ratio %v out of [0,1]", wrap, r.Ratio)
			}
		}
		classified := 0
		for _, row := range reg.JobTable() {
			if row.Class != "" {
				classified++
			}
		}
		if classified == 0 {
			t.Fatalf("wrapped=%v: job table has no classified rows: %+v", wrap, reg.JobTable())
		}
	}
}

func TestJobDurationsHelper(t *testing.T) {
	res := &Result{Jobs: []JobOutcome{
		{ID: "a", Epochs: 10, BusyTime: time.Hour},
		{ID: "b", Epochs: 0, BusyTime: 0}, // never started: excluded
	}}
	durs := res.JobDurations()
	if len(durs) != 1 || durs[0] != 1 {
		t.Fatalf("JobDurations = %v", durs)
	}
}

func TestConcurrencyNeverExceedsMachines(t *testing.T) {
	// Indirect check: with M machines and all jobs completing, the
	// experiment duration must be at least totalWork/M.
	tr := testTrace(t, 9, 15)
	for _, m := range []int{1, 2, 5, 9, 20} {
		res, err := Run(Options{Trace: tr, Machines: m, Policy: policy.NewDefault()})
		if err != nil {
			t.Fatal(err)
		}
		var work time.Duration
		for _, j := range res.Jobs {
			work += j.BusyTime
		}
		lower := work / time.Duration(m)
		if res.Duration < lower-time.Second {
			t.Fatalf("machines=%d: duration %v < work/machines %v", m, res.Duration, lower)
		}
	}
}

func TestMoreMachinesNotSlower(t *testing.T) {
	tr := testTrace(t, 12, 17)
	d1, err := Run(Options{Trace: tr, Machines: 1, Policy: policy.NewDefault()})
	if err != nil {
		t.Fatal(err)
	}
	d4, err := Run(Options{Trace: tr, Machines: 4, Policy: policy.NewDefault()})
	if err != nil {
		t.Fatal(err)
	}
	if d4.Duration > d1.Duration {
		t.Fatalf("4 machines (%v) slower than 1 (%v)", d4.Duration, d1.Duration)
	}
}

func TestSegmentsAndUtilization(t *testing.T) {
	tr := testTrace(t, 6, 31)
	res, err := Run(Options{Trace: tr, Machines: 2, Policy: policy.NewDefault()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("no occupancy segments recorded")
	}
	// Default policy never idles a machine while work remains: per-job
	// total segment time equals its busy time, and per-machine
	// segments never overlap.
	perJob := make(map[string]time.Duration)
	perMachine := make(map[int][]Segment)
	for _, s := range res.Segments {
		if s.End <= s.Start {
			t.Fatalf("degenerate segment %+v", s)
		}
		perJob[s.Job] += s.End - s.Start
		perMachine[s.Machine] = append(perMachine[s.Machine], s)
	}
	for _, j := range res.Jobs {
		if perJob[j.ID] != j.BusyTime {
			t.Fatalf("job %s segments %v != busy %v", j.ID, perJob[j.ID], j.BusyTime)
		}
	}
	for m, segs := range perMachine {
		sort.Slice(segs, func(a, b int) bool { return segs[a].Start < segs[b].Start })
		for i := 1; i < len(segs); i++ {
			if segs[i].Start < segs[i-1].End {
				t.Fatalf("machine %d segments overlap: %+v then %+v", m, segs[i-1], segs[i])
			}
		}
	}
	u := res.Utilization(2)
	if u < 0.8 || u > 1.0 {
		t.Fatalf("default-policy utilization = %.3f, want near 1", u)
	}
	if res.Utilization(0) != 0 {
		t.Fatal("Utilization(0) should be 0")
	}
}

func TestSuspendRotationKeepsUtilizationHigh(t *testing.T) {
	tr := testTrace(t, 8, 33)
	b, err := policy.NewBarrier(policy.NewDefault(), 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Trace: tr, Machines: 2, Policy: b})
	if err != nil {
		t.Fatal(err)
	}
	// Free suspends: rotation must not create idle gaps.
	if u := res.Utilization(2); u < 0.8 {
		t.Fatalf("barrier utilization = %.3f", u)
	}
}
