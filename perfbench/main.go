// Command perfbench is HyperDrive's end-to-end benchmark. It drives the
// program only through its public entry points (the simulator, a live
// experiment over the in-process worker pool, and hyperdrived over
// loopback node agents), checks every result against a computation made
// apart from the scheduler, and prints one JSON result line:
//
//	go build -o hdperf . && ./hdperf --workload sim-sweep --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same work
// with per-layer probes attached and prints the per-layer table
// instead. See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics with their units, in the order
// BENCHMARK.json declares them. Every workload reports every one.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"cpu_s", "s"},
	{"time_to_target_h", "h"},
	{"boundary_turnaround_ms_p50", "ms"},
	{"epoch_turnaround_ms_p50", "ms"},
	{"heap_retained_mb", "MB"},
}

// perLayer lists the traced run's per-layer metrics. A layer a workload
// does not exercise reports 0 (README.md, "Per-layer table").
var perLayer = []metricSpec{
	{"curve.fits", "count"},
	{"curve.fit_ms_p50", "ms"},
	{"curve.sweep_ms_p50", "ms"},
	{"core.estimate_us_p50", "us"},
	{"core.allocate_us_p50", "us"},
	{"policy.boundary_ms_p50", "ms"},
	{"policy.epoch_us_p50", "us"},
	{"policy.allocate_us_p50", "us"},
	{"cluster.loop_wait_ms_p50", "ms"},
	{"cluster.epoch_overhead_us_p50", "us"},
	{"cluster.epoch_turnaround_ms_p90", "ms"},
	{"cluster.epoch_turnaround_ms_p99", "ms"},
	{"cluster.start_us_p50", "us"},
	{"cluster.starts", "count"},
	{"cluster.resumes", "count"},
	{"cluster.eventlog_records", "count"},
	{"cluster.eventlog_bytes", "bytes"},
	{"cluster.eventlog_write_us_p50", "us"},
	{"cluster.eventlog_dropped", "count"},
	{"wire.bytes_per_epoch", "bytes"},
	{"wire.frames_per_epoch", "count"},
	{"wire.write_us_p50", "us"},
	{"wire.decode_us_p50", "us"},
	{"checkpoint.suspends", "count"},
	{"checkpoint.snapshot_bytes_mean", "bytes"},
	{"checkpoint.encode_us_p50", "us"},
	{"serve.api_ms_p50", "ms"},
	{"serve.api_ms_p90", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.status_ms_p50", "ms"},
	{"serve.events_ms_p50", "ms"},
	{"serve.feed_records", "count"},
	{"serve.hosted_experiments", "count"},
	{"sim.engine_s", "s"},
	{"workload.epochs", "count"},
	{"workload.step_us_p50", "us"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"tracing.makespan_s", "s"},
}

type metricSpec struct{ name, unit string }

// outcome is what one workload run hands back to main.
type outcome struct {
	problems  []string
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records a failed correctness check; the run then reports
// correct=false.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runParams are the command-line inputs every workload receives.
type runParams struct {
	seed    int64
	seconds float64
	traced  bool
}

var workloads = map[string]func(runParams) (*outcome, error){
	"sim-sweep":    runSimSweep,
	"live-pop":     runLivePOP,
	"serve-agents": runServeAgents,
}

func main() {
	name := flag.String("workload", "", "sim-sweep | live-pop | serve-agents")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "measuring time budget")
	traced := flag.Int("trace", 0, "1 prints the per-layer table instead of the end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload sim-sweep|live-pop|serve-agents --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	// One core: live-pop rounds of identical work repeat more closely
	// than with two, and two expose the agents' slot hand-off race
	// (README.md, "Why one core").
	runtime.GOMAXPROCS(1)

	out, err := run(runParams{seed: *seed, seconds: *seconds, traced: *traced == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	specs, values := endToEnd, out.e2e
	if *traced == 1 {
		specs, values = perLayer, out.layers
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		metrics[s.name] = jsonMetric{Value: values[s.name], Unit: s.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// --- measurement helpers ---------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return timeval(ru.Utime) + timeval(ru.Stime)
}

func timeval(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// runtimeSnap captures the Go runtime counters a round's deltas are
// taken from.
type runtimeSnap struct {
	gcCycles   uint32
	pauseTotal uint64
	alloc      uint64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{gcCycles: ms.NumGC, pauseTotal: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// putRuntimeLayers reports the Go runtime's work between two snapshots.
func putRuntimeLayers(o *outcome, a, b runtimeSnap) {
	o.layers["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	o.layers["go.gc_pause_ms"] = float64(b.pauseTotal-a.pauseTotal) / 1e6
	o.layers["go.alloc_mb"] = float64(b.alloc-a.alloc) / 1e6
}

// retainedHeapMB forces collection and reports the live heap.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median, since one set-up of a few milliseconds moves with the host.
const setupReps = 15

// rounds repeats one round of fixed work until the time budget would be
// exceeded by another round of the same length (always at least one),
// so every run attempts whole rounds.
func rounds(seconds float64, round func() error) error {
	start := time.Now()
	for {
		t := time.Now()
		if err := round(); err != nil {
			return err
		}
		last := time.Since(t).Seconds()
		if time.Since(start).Seconds()+last > seconds {
			return nil
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
