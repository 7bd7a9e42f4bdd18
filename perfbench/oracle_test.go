package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sim"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
)

// handTrace is three 3-epoch jobs whose schedule on two machines is
// worked out by hand in the tests below (durations in minutes).
func handTrace(target float64) *trace.Trace {
	job := func(id string, mins []int, metrics []float64) trace.Job {
		j := trace.Job{ID: id, Config: map[string]float64{"x": 1}}
		for i := range mins {
			j.Samples = append(j.Samples, trace.Sample{
				Epoch: i + 1, Metric: metrics[i], DurationNs: int64(time.Duration(mins[i]) * time.Minute),
			})
		}
		return j
	}
	return &trace.Trace{
		Workload: "hand", Target: target, KillThreshold: 0.05, RandomFloor: 0.1,
		EvalBoundary: 10, MaxEpoch: 3, MetricMin: 0, MetricMax: 1,
		Jobs: []trace.Job{
			job("j0", []int{10, 10, 10}, []float64{0.1, 0.2, 0.3}),
			job("j1", []int{5, 5, 5}, []float64{0.3, 0.5, 0.85}),
			job("j2", []int{1, 1, 1}, []float64{0.9, 0.9, 0.9}),
		},
	}
}

func runDefault(t *testing.T, tr *trace.Trace) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Options{Trace: tr, Machines: 2, Policy: policy.NewDefault(), StopAtTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Target 0.8: j0 runs on m0 from 0, j1 on m1 from 0. j1's third epoch
// ends at 15 min at 0.85, which stops the run before j2 (next on m1 at
// 15 min) starts; j0 has finished one epoch by then.
func TestFIFOReplayReached(t *testing.T) {
	r := fifoReplay(handTrace(0.8), 2, 7*24*time.Hour)
	if !r.reached || r.ttt != 15*time.Minute || r.duration != 15*time.Minute {
		t.Fatalf("reached=%v ttt=%v duration=%v, want true 15m 15m", r.reached, r.ttt, r.duration)
	}
	if r.best != 0.85 || r.bestJob != "j1" || r.starts != 2 {
		t.Fatalf("best %v (%s), %d starts; want 0.85 (j1), 2", r.best, r.bestJob, r.starts)
	}
	wantEpochs := []int{1, 3, 0}
	wantBusy := []time.Duration{10 * time.Minute, 15 * time.Minute, 0}
	for j := range wantEpochs {
		if r.epochs[j] != wantEpochs[j] || r.busy[j] != wantBusy[j] {
			t.Errorf("job %d: %d epochs (%v), want %d (%v)", j, r.epochs[j], r.busy[j], wantEpochs[j], wantBusy[j])
		}
	}
}

// Target 0.95 is never reached: j2 runs on m1 from 15 to 18 min, j0
// ends the run at 30 min, and the best is j2's first epoch (0.9 at 16).
func TestFIFOReplayNotReached(t *testing.T) {
	r := fifoReplay(handTrace(0.95), 2, 7*24*time.Hour)
	if r.reached || r.duration != 30*time.Minute || r.starts != 3 {
		t.Fatalf("reached=%v duration=%v starts=%d, want false 30m 3", r.reached, r.duration, r.starts)
	}
	if r.best != 0.9 || r.bestJob != "j2" {
		t.Fatalf("best %v (%s), want 0.9 (j2)", r.best, r.bestJob)
	}
	// Tmax cuts j0 after its second epoch and stops the run there.
	r = fifoReplay(handTrace(0.95), 2, 25*time.Minute)
	if r.duration != 25*time.Minute || r.epochs[0] != 2 || r.epochs[2] != 3 {
		t.Fatalf("with Tmax 25m: duration %v, epochs %v; want 25m, [2 3 3]", r.duration, r.epochs)
	}
}

func TestSimulatorPassesChecks(t *testing.T) {
	for _, target := range []float64{0.8, 0.95} {
		tr := handTrace(target)
		res := runDefault(t, tr)
		var bad []string
		bad = append(bad, checkFIFO(tr, 2, 7*24*time.Hour, res)...)
		bad = append(bad, checkProperties("default", tr, res)...)
		bad = append(bad, checkTargetTime("default", tr, res)...)
		if len(bad) > 0 {
			t.Errorf("target %v: %s", target, strings.Join(bad, "; "))
		}
	}
}

func TestChecksCatchFaults(t *testing.T) {
	tr := handTrace(0.8)
	cases := []struct {
		name   string
		mutate func(*sim.Result)
		check  func(*sim.Result) []string
	}{
		{"busy time", func(r *sim.Result) { r.Jobs[0].BusyTime += time.Second },
			func(r *sim.Result) []string { return checkProperties("p", tr, r) }},
		{"job best", func(r *sim.Result) { r.Jobs[1].Best = 0.5 },
			func(r *sim.Result) []string { return checkProperties("p", tr, r) }},
		{"reached", func(r *sim.Result) { r.Reached = false },
			func(r *sim.Result) []string { return checkProperties("p", tr, r) }},
		{"overlap", func(r *sim.Result) {
			r.Segments = append(r.Segments, sim.Segment{Job: "jx", Machine: r.Segments[0].Machine, Start: 0, End: time.Minute})
		}, func(r *sim.Result) []string { return checkProperties("p", tr, r) }},
		{"time-to-target", func(r *sim.Result) { r.TimeToTarget -= time.Minute },
			func(r *sim.Result) []string { return checkTargetTime("p", tr, r) }},
		{"fifo order", func(r *sim.Result) { r.Jobs[0].Epochs, r.Jobs[2].Epochs = 0, 1 },
			func(r *sim.Result) []string { return checkFIFO(tr, 2, 7*24*time.Hour, r) }},
	}
	for _, c := range cases {
		res := runDefault(t, tr)
		c.mutate(res)
		if len(c.check(res)) == 0 {
			t.Errorf("%s: a faulty result passed", c.name)
		}
	}
}

// The time-to-target lower bound: j2 alone reaches 0.8 after 1 min.
func TestSoonestAlone(t *testing.T) {
	if got := soonestAlone(handTrace(0.8)); got != time.Minute {
		t.Fatalf("soonest alone %v, want 1m", got)
	}
	if got := soonestAlone(handTrace(0.99)); got != -1 {
		t.Fatalf("soonest alone %v with no winner, want -1", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if median(xs) != 3 || quantile(xs, 0.9) != 4.6 || quantile(nil, 0.5) != 0 {
		t.Fatalf("median %v p90 %v", median(xs), quantile(xs, 0.9))
	}
}

// BENCHMARK.json must name exactly the metrics the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d printed", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) printed", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
