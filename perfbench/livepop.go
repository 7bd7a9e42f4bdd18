package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/hypergen"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// live-pop is one live experiment on the CLI's default deployment: an
// in-process worker pool writing an event log, POP at the paper's MCMC
// budget (100x700), CIFAR-10, 4 slots, the default 600x clock.
// StopAtTarget is off and Tmax lies far beyond the run, so the
// experiment explores every configuration and does the same work on
// every run; with StopAtTarget on, the stop instant (and so the amount
// of work) depends on timing.
//
// The configuration population and training seeds are fixed, for the
// same reason as sim-sweep's; --seed seeds the checkpoint capture model
// (each suspend's modelled size and latency).
const (
	livePopulation = 7
	liveConfigs    = 6
	liveTrainSeed  = 100
	liveSlots      = 4
	liveSpeedUp    = 600
)

// outDir holds what runs leave behind (the event log), under the
// directory the benchmark is run from.
const outDir = ".bench_out"

type liveSetup struct {
	probe *jobProbe
	exp   *cluster.Experiment
	rec   *trace.Recorder
	log   *cluster.EventLog
	file  *os.File
	sink  *countingWriter // traced only
	tp    *timedPolicy    // traced only
}

func (s *liveSetup) close() {
	_ = s.exp.Close()
	s.log.Close()
	_ = s.file.Close()
}

func buildLive(seed int64, traced bool, captured *[]fitInput) (*liveSetup, error) {
	spec := workload.CIFAR10()
	s := &liveSetup{}
	s.probe = newJobProbe(clock.NewScaled(time.Now(), liveSpeedUp), spec.Target(), spec.EvalBoundary(), traced)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(outDir, "live-pop-events.jsonl"))
	if err != nil {
		return nil, err
	}
	s.file = f
	var w io.Writer = f
	if traced {
		s.sink = &countingWriter{w: f}
		w = s.sink
	}
	s.log = cluster.NewEventLog(w)
	s.rec = trace.NewRecorder(spec)

	var pol policy.Policy
	pol, err = policy.NewPOP(policy.POPOptions{Predictor: curve.PaperConfig()})
	if err != nil {
		return nil, err
	}
	if traced {
		s.tp = newTimedPolicy(pol, spec.EvalBoundary())
		s.tp.decisions = map[decisionKey]float64{}
		s.tp.onBoundary = func(ctx policy.Context, ev sched.Event) {
			if len(*captured) < retimeSamples {
				if f, ok := captureFit(ctx, ev); ok {
					*captured = append(*captured, f)
				}
			}
		}
		pol = s.tp
	}
	s.exp, err = cluster.New(cluster.Config{
		Workload:       spec.Name(),
		Registry:       s.probe.registry(),
		Generator:      hypergen.NewRandom(spec.Space(), livePopulation, liveConfigs),
		Policy:         pol,
		Machines:       liveSlots,
		MaxJobs:        liveConfigs,
		MaxDuration:    10000 * time.Hour,
		Clock:          s.probe,
		CheckpointSeed: seed,
		Seed:           liveTrainSeed,
		Recorder:       s.rec,
		EventLog:       s.log,
	})
	if err != nil {
		s.log.Close()
		f.Close()
		return nil, err
	}
	return s, nil
}

func runLivePOP(p runParams) (*outcome, error) {
	o := newOutcome()
	spec := workload.CIFAR10()
	var setups, makespans, cpus, ttts, boundaryP50, epochP50, heaps []float64
	var captured []fitInput
	var last *liveSetup
	var lastRes *cluster.Result

	for i := 0; i < setupReps-1; i++ {
		t0 := time.Now()
		s, err := buildLive(p.seed, p.traced, &captured)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.close()
	}
	rt0 := snapRuntime()
	err := rounds(p.seconds, func() error {
		t0 := time.Now()
		s, err := buildLive(p.seed, p.traced, &captured)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		start := s.probe.Now()
		wall0, cpu0 := time.Now(), cpuSeconds()
		res, err := s.exp.Run(context.Background())
		makespans = append(makespans, time.Since(wall0).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu0)
		s.close()
		if err != nil {
			return err
		}
		checkLive(o, spec, s, res)
		s.probe.mu.Lock()
		if s.probe.firstTarget.IsZero() {
			ttts = append(ttts, res.Duration.Hours())
		} else {
			ttts = append(ttts, s.probe.firstTarget.Sub(start).Hours())
		}
		boundaryP50 = append(boundaryP50, median(s.probe.boundaryMs))
		epochP50 = append(epochP50, median(s.probe.epochMs))
		s.probe.mu.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: live-pop round: %d fits, %d suspends, %d epochs, %.1f s\n",
			res.Fits, res.Suspends, s.probe.steps, makespans[len(makespans)-1])
		if p.traced {
			last, lastRes = s, res
		}
		heaps = append(heaps, retainedHeapMB())
		runtime.KeepAlive(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt1 := snapRuntime()

	o.e2e["setup_s"] = median(setups)
	o.e2e["makespan_s"] = median(makespans)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["time_to_target_h"] = median(ttts)
	o.e2e["boundary_turnaround_ms_p50"] = median(boundaryP50)
	o.e2e["epoch_turnaround_ms_p50"] = median(epochP50)
	// The live heap after the first round: later rounds' count depends
	// on timing.
	o.e2e["heap_retained_mb"] = heaps[0]

	if p.traced {
		o.layers["tracing.makespan_s"] = median(makespans)
		putLiveLayers(o, last, lastRes, captured, p.seed)
		putRuntimeLayers(o, rt0, rt1)
	}
	return o, nil
}

// checkLive judges one live run against fresh trainers.
func checkLive(o *outcome, spec workload.Spec, s *liveSetup, res *cluster.Result) {
	o.attempted += liveConfigs
	o.check(res.StoppedBy == "exhausted", "stopped by %q, want exhausted", res.StoppedBy)
	o.check(len(res.Jobs) == liveConfigs, "%d jobs for %d configurations", len(res.Jobs), liveConfigs)
	epochs := map[string]int{}
	for _, j := range res.Jobs {
		epochs[string(j.ID)] = j.Epochs
		if j.Epochs == 0 {
			o.failed++
		}
		switch j.FinalState {
		case sched.Completed:
			o.check(j.Epochs == spec.MaxEpoch(), "job %s completed after %d epochs", j.ID, j.Epochs)
		case sched.Terminated:
			o.check(j.Epochs%spec.EvalBoundary() == 0, "job %s terminated off a boundary, at epoch %d", j.ID, j.Epochs)
		default:
			o.check(false, "job %s ended %v", j.ID, j.FinalState)
		}
	}
	o.failed += liveConfigs - len(res.Jobs)
	s.probe.mu.Lock()
	for _, e := range s.probe.suspendEpochs {
		o.check(e%spec.EvalBoundary() == 0, "job suspended off a boundary, at epoch %d", e)
	}
	o.check(len(s.probe.suspendEpochs) == res.Suspends, "%d snapshots taken for %d suspends", len(s.probe.suspendEpochs), res.Suspends)
	s.probe.mu.Unlock()

	// Every job's recorded statistics, across its suspends and resumes,
	// must be exactly what a fresh trainer for its (config, seed)
	// produces: no epoch lost, repeated or altered on the way.
	tr, _, err := s.rec.Finish()
	if err != nil {
		o.check(false, "trace recorder: %v", err)
		return
	}
	for _, j := range tr.Jobs {
		o.check(len(j.Samples) == epochs[j.ID], "job %s: %d recorded epochs, %d trained", j.ID, len(j.Samples), epochs[j.ID])
		fresh := spec.New(j.Config, j.Seed)
		for _, got := range j.Samples {
			want, _ := fresh.Step()
			if got.Metric != want.Metric || got.Duration() != want.Duration || got.Epoch != want.Epoch {
				o.check(false, "job %s epoch %d: recorded (%v, %v), fresh trainer (%v, %v)",
					j.ID, got.Epoch, got.Metric, got.Duration(), want.Metric, want.Duration)
				break
			}
		}
	}
}

// putLiveLayers fills the per-layer table from the last traced round.
func putLiveLayers(o *outcome, s *liveSetup, res *cluster.Result, captured []fitInput, seed int64) {
	tp, probe := s.tp, s.probe
	o.layers["curve.fits"] = float64(res.Fits)
	retimeCurveCore(o, curve.PaperConfig(), captured)
	o.layers["policy.boundary_ms_p50"] = median(tp.boundaryMs)
	o.layers["policy.epoch_us_p50"] = median(tp.epochUs)
	o.layers["policy.allocate_us_p50"] = median(tp.allocUs)

	tr, _, _ := s.rec.Finish()
	jobOf := map[int64]string{}
	for _, j := range tr.Jobs {
		jobOf[j.Seed] = j.ID
	}
	probe.mu.Lock()
	var loopMs, overheadUs []float64
	for _, w := range probe.waits {
		pol, ok := tp.decisions[decisionKey{sched.JobID(jobOf[w.seed]), w.epoch}]
		if !ok {
			continue
		}
		if w.boundary {
			loopMs = append(loopMs, w.ms-pol)
		} else {
			overheadUs = append(overheadUs, (w.ms-pol)*1e3)
		}
	}
	o.layers["cluster.loop_wait_ms_p50"] = median(loopMs)
	o.layers["cluster.epoch_overhead_us_p50"] = median(overheadUs)
	o.layers["cluster.epoch_turnaround_ms_p90"] = quantile(probe.epochMs, 0.9)
	o.layers["cluster.epoch_turnaround_ms_p99"] = tail99(probe.epochMs)
	o.layers["cluster.start_us_p50"] = median(probe.startUs)
	snaps := probe.snapshots
	probe.mu.Unlock()
	o.layers["cluster.starts"] = float64(res.Starts)
	o.layers["cluster.resumes"] = float64(res.Resumes)
	s.sink.put(o)
	o.layers["cluster.eventlog_dropped"] = float64(s.log.Dropped())

	o.layers["checkpoint.suspends"] = float64(res.Suspends)
	o.layers["checkpoint.snapshot_bytes_mean"] = mean(res.Overheads.Sizes())
	if capt, err := checkpoint.NewCapturer(checkpoint.Framework, seed); err == nil {
		var encUs []float64
		for _, b := range snaps {
			t0 := time.Now()
			_ = capt.Capture(b).Encode()
			encUs = append(encUs, us(time.Since(t0)))
		}
		o.layers["checkpoint.encode_us_p50"] = median(encUs)
	}
	probe.putWorkloadLayers(o)
}

// tail99 is the 99th percentile, reported only when at least ten
// samples lie beyond it.
func tail99(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	return quantile(xs, 0.99)
}

// countingWriter counts and times the event log's writes.
type countingWriter struct {
	w       io.Writer
	mu      sync.Mutex
	records int
	bytes   int
	writeUs []float64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.w.Write(b)
	d := time.Since(t0)
	c.mu.Lock()
	c.records += bytes.Count(b[:n], []byte{'\n'})
	c.bytes += n
	c.writeUs = append(c.writeUs, us(d))
	c.mu.Unlock()
	if err != nil {
		return n, fmt.Errorf("event log sink: %w", err)
	}
	return n, nil
}

func (c *countingWriter) put(o *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.layers["cluster.eventlog_records"] = float64(c.records)
	o.layers["cluster.eventlog_bytes"] = float64(c.bytes)
	o.layers["cluster.eventlog_write_us_p50"] = median(c.writeUs)
}
