package figures

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/sim"
	"github.com/hyperdrive-ml/hyperdrive/internal/stats"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// Fig1 regenerates Figure 1: validation accuracy of randomly selected
// supervised-learning configurations as a function of training
// iteration. The paper's observations to reproduce: a majority of
// curves stuck near 10% random accuracy and only ~3 of 50 exceeding
// 75%.
func Fig1(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	n := pick(o, 20, 50)
	cfgs := sampleConfigs(spec, n, o.Seed+1)

	rep := &Report{
		ID:     "fig1",
		Title:  fmt.Sprintf("accuracy vs iteration, %d random CIFAR-10 configs", n),
		Header: []string{"config", "epoch", "accuracy"},
	}
	ge75, poor := 0, 0
	for i, cfg := range cfgs {
		tr := spec.New(cfg, int64(i))
		best := 0.0
		for {
			s, done := tr.Step()
			if s.Epoch%5 == 0 || s.Epoch == 1 || done {
				rep.AddRow(fmt.Sprintf("c%02d", i), s.Epoch, s.Metric)
			}
			if s.Metric > best {
				best = s.Metric
			}
			if done {
				break
			}
		}
		if best >= 0.75 {
			ge75++
		}
		if best <= 0.15 {
			poor++
		}
	}
	rep.Note("%d/%d configs exceed 75%% accuracy (paper: 3/50)", ge75, n)
	rep.Note("%d/%d configs never escape random accuracy (paper: a significant portion)", poor, n)
	return rep, nil
}

// Fig2a regenerates Figure 2a: the CDF of final validation accuracy
// over 90 random configurations; the paper reports 32% at or below
// random accuracy.
func Fig2a(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	n := pick(o, 90, 90)
	cfgs := sampleConfigs(spec, n, o.Seed+2)
	finals := make([]float64, 0, n)
	for i, cfg := range cfgs {
		p := workload.NewCIFAR10Profile(spec.Space(), cfg, int64(i))
		if p.Learnable {
			finals = append(finals, p.AccuracyAt(spec.MaxEpoch()))
		} else {
			finals = append(finals, p.Floor)
		}
	}
	rep := &Report{
		ID:     "fig2a",
		Title:  fmt.Sprintf("final validation accuracy CDF, %d configs", n),
		Header: []string{"accuracy", "cdf"},
	}
	for _, pt := range stats.ECDF(finals) {
		rep.AddRow(pt.X, pt.P)
	}
	atRandom := stats.CDFAt(finals, 0.13)
	rep.Note("fraction at/below random accuracy: %.2f (paper: 0.32)", atRandom)
	return rep, nil
}

// overtakePair scans random configurations for a Figure 2b pair: A
// leads at epoch 20 but B has the better final accuracy.
func overtakePair(spec workload.Spec, seed int64) (a, b param.Config, aSeed, bSeed int64, err error) {
	rng := rand.New(rand.NewSource(seed))
	type cand struct {
		cfg   param.Config
		seed  int64
		early float64
		final float64
	}
	var cands []cand
	for i := 0; i < 400; i++ {
		cfg := spec.Space().Sample(rng)
		p := workload.NewCIFAR10Profile(spec.Space(), cfg, int64(i))
		if !p.Learnable {
			continue
		}
		cands = append(cands, cand{cfg: cfg, seed: int64(i), early: p.AccuracyAt(20), final: p.AccuracyAt(120)})
	}
	bestGap := 0.0
	var bi, bj int = -1, -1
	for i := range cands {
		for j := range cands {
			// i leads early, j wins finally.
			gap := min2(cands[i].early-cands[j].early, cands[j].final-cands[i].final)
			if gap > bestGap {
				bestGap = gap
				bi, bj = i, j
			}
		}
	}
	if bi < 0 {
		return nil, nil, 0, 0, fmt.Errorf("no overtaking pair found")
	}
	return cands[bi].cfg, cands[bj].cfg, cands[bi].seed, cands[bj].seed, nil
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Fig2b regenerates Figure 2b: two configurations where the early
// leader (A) is overtaken by the eventual winner (B) after ~epoch 50.
func Fig2b(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	cfgA, cfgB, seedA, seedB, err := overtakePair(spec, o.Seed+3)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig2b",
		Title:  "overtaking configurations A and B",
		Header: []string{"config", "epoch", "accuracy"},
	}
	for _, c := range []struct {
		name string
		cfg  param.Config
		seed int64
	}{{"A", cfgA, seedA}, {"B", cfgB, seedB}} {
		tr := spec.New(c.cfg, c.seed)
		for {
			s, done := tr.Step()
			if s.Epoch%4 == 0 || s.Epoch == 1 || done {
				rep.AddRow(c.name, s.Epoch, s.Metric)
			}
			if done {
				break
			}
		}
	}
	pa := workload.NewCIFAR10Profile(spec.Space(), cfgA, seedA)
	pb := workload.NewCIFAR10Profile(spec.Space(), cfgB, seedB)
	rep.Note("A at epoch 20: %.3f vs B: %.3f (A leads)", pa.AccuracyAt(20), pb.AccuracyAt(20))
	rep.Note("A final: %.3f vs B final: %.3f (B overtakes)", pa.AccuracyAt(120), pb.AccuracyAt(120))
	return rep, nil
}

// Fig2c regenerates Figure 2c: predicted accuracy with confidence
// bands for A and B from a 10-epoch prefix. The paper's point: A's
// expected accuracy is higher at epoch 10 but with wider variance;
// expectation alone misleads without the confidence.
func Fig2c(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	cfgA, cfgB, seedA, seedB, err := overtakePair(spec, o.Seed+3)
	if err != nil {
		return nil, err
	}
	pred, err := curve.NewPredictor(predictorFor(o))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig2c",
		Title:  "prediction at epoch 10 for configs A and B",
		Header: []string{"config", "epoch", "measured", "predicted", "std"},
	}
	for name, pair := range map[string]struct {
		cfg  param.Config
		seed int64
	}{"A": {cfgA, seedA}, "B": {cfgB, seedB}} {
		prof := workload.NewCIFAR10Profile(spec.Space(), pair.cfg, pair.seed)
		var obs []float64
		for e := 1; e <= 10; e++ {
			obs = append(obs, prof.AccuracyAt(e))
		}
		post, err := pred.Fit(obs, spec.MaxEpoch(), pair.seed)
		if err != nil {
			return nil, err
		}
		for e := 1; e <= spec.MaxEpoch(); e += 6 {
			mean, std := post.Predict(e)
			rep.AddRow(name, e, prof.AccuracyAt(e), mean, std)
		}
	}
	return rep, nil
}

// Fig3 regenerates Figure 3: predicted and measured accuracy curves at
// three stages (epoch 10, epoch 30, final), showing confidence
// sharpening as history accumulates.
func Fig3(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	cfgs := sampleConfigs(spec, 60, o.Seed+4)
	pred, err := curve.NewPredictor(predictorFor(o))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig3",
		Title:  "predictions at epochs 10 and 30 vs final curves",
		Header: []string{"config", "stage", "epoch", "value", "std"},
	}
	count := 0
	avgStd10, avgStd30 := 0.0, 0.0
	for i, cfg := range cfgs {
		prof := workload.NewCIFAR10Profile(spec.Space(), cfg, int64(i))
		if !prof.Learnable || count >= pick(o, 3, 5) {
			continue
		}
		count++
		name := fmt.Sprintf("c%02d", i)
		var obs []float64
		for e := 1; e <= spec.MaxEpoch(); e++ {
			obs = append(obs, prof.AccuracyAt(e))
			if e%12 == 0 || e == 1 {
				rep.AddRow(name, "measured", e, prof.AccuracyAt(e), 0.0)
			}
		}
		for _, stage := range []int{10, 30} {
			post, err := pred.Fit(obs[:stage], spec.MaxEpoch(), int64(i))
			if err != nil {
				return nil, err
			}
			sumStd := 0.0
			pts := 0
			for e := stage; e <= spec.MaxEpoch(); e += 12 {
				mean, std := post.Predict(e)
				rep.AddRow(name, fmt.Sprintf("pred@%d", stage), e, mean, std)
				sumStd += std
				pts++
			}
			if stage == 10 {
				avgStd10 += sumStd / float64(pts)
			} else {
				avgStd30 += sumStd / float64(pts)
			}
		}
	}
	if count > 0 {
		rep.Note("mean prediction std at epoch 10: %.3f vs epoch 30: %.3f (confidence grows with history)",
			avgStd10/float64(count), avgStd30/float64(count))
	}
	return rep, nil
}

// Fig6 regenerates Figure 6: the distribution of per-job execution
// durations under POP, Bandit, and EarlyTerm. The paper's shape: POP
// spends >= 30 minutes on only ~5% of jobs, the baselines on ~15%.
func Fig6(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	n := pick(o, 40, 100)
	tr, err := collectWinnerTrace(spec, n, o.Seed+6, 0, 1)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig6",
		Title:  fmt.Sprintf("job execution duration distribution, %d configs, 4 machines", n),
		Header: []string{"policy", "percentile", "hours"},
	}
	pred := predictorFor(o)
	for _, polName := range []string{"pop", "bandit", "earlyterm"} {
		pol, err := buildPolicy(polName, pred)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Options{Trace: tr, Machines: 4, Policy: pol})
		if err != nil {
			return nil, err
		}
		durs := res.JobDurations()
		for p := 10; p <= 100; p += 10 {
			rep.AddRow(polName, p, stats.Percentile(durs, float64(p)))
		}
		longFrac := 1 - stats.CDFAt(durs, 0.5)
		rep.Note("%s: %.0f%% of jobs run >= 30 min (paper: POP ~5%%, baselines ~15%%)", polName, longFrac*100)
	}
	return rep, nil
}

// Fig7 regenerates Figure 7: boxplots of time to reach 77% validation
// accuracy under each policy across repeated experiments. The paper:
// POP 2.8h mean vs Bandit 4.5h (1.6x) vs EarlyTerm 6.1h (2.1x), with
// POP's min-max spread ~2x smaller.
func Fig7(o Options) (*Report, error) {
	return timeToTargetBoxes(o, "fig7", workload.CIFAR10(), pick(o, 40, 100), 4, pick(o, 6, 10), o.Seed+7)
}

// timeToTargetBoxes is the shared Fig7/Fig9 experiment: repeated
// time-to-target measurement with per-repeat training seeds.
func timeToTargetBoxes(o Options, id string, spec workload.Spec, nConfigs, machines, repeats int, seed int64) (*Report, error) {
	rep := &Report{
		ID: id,
		Title: fmt.Sprintf("time to target, %s, %d configs, %d machines, %d repeats",
			spec.Name(), nConfigs, machines, repeats),
		Header: []string{"policy", "min_h", "q1_h", "median_h", "q3_h", "max_h", "mean_h", "reached"},
	}
	pred := predictorFor(o)
	policies := []string{"pop", "bandit", "earlyterm", "default"}
	means := make(map[string]float64, len(policies))
	medAll := make(map[string]float64, len(policies))
	for _, polName := range policies {
		var ttts, penalized []float64
		reached := 0
		for r := 0; r < repeats; r++ {
			tr, err := collectWinnerTrace(spec, nConfigs, seed, int64(1000*(r+1)), 1)
			if err != nil {
				return nil, err
			}
			res, err := timeToTarget(tr, polName, machines, pred)
			if err != nil {
				return nil, err
			}
			if res.Reached {
				reached++
				ttts = append(ttts, res.TimeToTarget.Hours())
				penalized = append(penalized, res.TimeToTarget.Hours())
			} else {
				penalized = append(penalized, math.Inf(1)) // DNF: never reached
			}
		}
		medAll[polName] = median(penalized)
		if reached < repeats {
			rep.Note("%s failed to reach the target in %d/%d repeats (terminated every winner)",
				polName, repeats-reached, repeats)
		}
		if len(ttts) == 0 {
			rep.AddRow(polName, "-", "-", "-", "-", "-", "-", fmt.Sprintf("0/%d", repeats))
			continue
		}
		box, err := stats.BoxSummary(ttts)
		if err != nil {
			return nil, err
		}
		means[polName] = box.Mean
		rep.AddRow(polName, box.Min, box.Q1, box.Med, box.Q3, box.Max, box.Mean,
			fmt.Sprintf("%d/%d", reached, repeats))
	}
	if pop, ok := means["pop"]; ok && pop > 0 {
		for _, other := range []string{"bandit", "earlyterm", "default"} {
			if m, ok := means[other]; ok {
				rep.Note("POP speedup over %s: %.2fx (mean of reached runs), %s (median with DNF penalty)",
					other, m/pop, speedupStr(medAll[other], medAll["pop"]))
			}
		}
	}
	return rep, nil
}

// speedupStr renders a ratio that may involve DNF (infinite) medians.
func speedupStr(other, pop float64) string {
	if math.IsInf(other, 1) {
		return "inf"
	}
	if pop <= 0 || math.IsInf(pop, 1) {
		return "-"
	}
	return fmt.Sprintf("%.2fx", other/pop)
}

// OverheadSL regenerates the §6.2.3 supervised suspend-overhead
// measurements: ~158ms mean suspend latency (p95 219ms, max 1.12s) and
// ~358KB mean snapshot size (p95 685KB).
func OverheadSL(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	tr, err := collectWinnerTrace(spec, pick(o, 40, 100), o.Seed+8, 0, 1)
	if err != nil {
		return nil, err
	}
	capt, err := checkpoint.NewCapturer(checkpoint.Framework, o.Seed+8)
	if err != nil {
		return nil, err
	}
	var acct checkpoint.Accounting
	pol, err := buildPolicy("pop", predictorFor(o))
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Options{
		Trace: tr, Machines: 4, Policy: pol,
		Checkpointer: capt, CheckpointAccounting: &acct,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "overhead-sl",
		Title:  "supervised-learning suspend overhead (framework snapshots)",
		Header: []string{"metric", "mean", "std", "p95", "max"},
	}
	lats := acct.Latencies()
	if len(lats) == 0 {
		rep.Note("no suspends occurred in this run (%d suspends)", res.Suspends)
		return rep, nil
	}
	msec := make([]float64, len(lats))
	for i, v := range lats {
		msec[i] = v * 1000
	}
	latSum, _ := stats.Summarize(msec)
	rep.AddRow("suspend latency (ms)", latSum.Mean, latSum.Std, stats.Percentile(msec, 95), latSum.Max)
	sizes := acct.Sizes()
	kb := make([]float64, len(sizes))
	for i, v := range sizes {
		kb[i] = v / 1024
	}
	sizeSum, _ := stats.Summarize(kb)
	rep.AddRow("snapshot size (KB)", sizeSum.Mean, sizeSum.Std, stats.Percentile(kb, 95), sizeSum.Max)
	rep.Note("paper §6.2.3: latency mean 157.69ms std 72ms p95 219ms max 1.12s; size mean 357.67KB std 122.46KB p95 685.26KB")
	rep.Note("%d suspends across %d jobs", res.Suspends, len(res.Jobs))
	return rep, nil
}

// Headline regenerates the abstract's claims: POP speedup up to 6.7x
// over random/grid search (Default) and up to 2.1x over the
// state-of-the-art baselines.
func Headline(o Options) (*Report, error) {
	spec := workload.CIFAR10()
	n := pick(o, 40, 100)
	repeats := pick(o, 3, 5)
	rep := &Report{
		ID:     "headline",
		Title:  "POP speedup over baselines (mean time-to-target ratios)",
		Header: []string{"baseline", "speedup"},
	}
	pred := predictorFor(o)
	sums := map[string]float64{}
	counts := map[string]int{}
	for r := 0; r < repeats; r++ {
		tr, err := collectWinnerTrace(spec, n, o.Seed+9+int64(r), int64(500*r), 1)
		if err != nil {
			return nil, err
		}
		for _, polName := range []string{"pop", "bandit", "earlyterm", "default"} {
			res, err := timeToTarget(tr, polName, 4, pred)
			if err != nil {
				return nil, err
			}
			if res.Reached {
				sums[polName] += res.TimeToTarget.Hours()
				counts[polName]++
			}
		}
	}
	pop := sums["pop"] / float64(max1(counts["pop"]))
	for _, other := range []string{"default", "bandit", "earlyterm"} {
		if counts[other] == 0 || pop == 0 {
			rep.AddRow(other, "-")
			continue
		}
		mean := sums[other] / float64(counts[other])
		rep.AddRow(other, mean/pop)
	}
	rep.Note("paper: up to 6.7x vs random/grid search, up to 2.1x vs state of the art")
	return rep, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
