package hyperdrive

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

// tinyPOP builds a POP policy with a minimal MCMC budget for fast
// end-to-end runs.
func tinyPOP(t *testing.T) Policy {
	t.Helper()
	pop, err := NewPOP(POPOptions{Predictor: CurveConfig{
		Walkers: 8, Iters: 30, BurnFrac: 0.5, MaxSamples: 100, StretchA: 2, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// TestObservabilityEndToEnd runs a short live experiment with a
// registry attached and checks the full telemetry chain: decision
// latency samples, span-stamped decision log records, and span
// resolution back to the estimate inputs POP saw.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := NewObsRegistry()
	var logBuf bytes.Buffer
	elog := NewEventLog(&logBuf)

	res, err := RunExperiment(context.Background(), ExperimentConfig{
		Workload:     "cifar10",
		CustomPolicy: tinyPOP(t),
		Machines:     2,
		MaxJobs:      5,
		Clock:        fastClk(),
		Seed:         2,
		Obs:          reg,
		EventLog:     elog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminations+res.Completions == 0 {
		t.Fatal("nothing finished")
	}

	snap := reg.Snapshot()

	// Every OnIterationFinish must have produced a latency sample.
	lat := snap.Histograms[obs.DecisionLatencySeconds]
	if lat.Count == 0 {
		t.Fatal("no decision latency samples recorded")
	}
	var decisions int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "hyperdrive_decisions_total") {
			decisions += v
		}
	}
	if decisions != lat.Count {
		t.Fatalf("decision counters (%d) != latency samples (%d)", decisions, lat.Count)
	}
	if snap.Counters[obs.EpochsTotal] == 0 {
		t.Fatal("no epochs counted")
	}
	if snap.Counters[obs.MCMCFitsTotal] == 0 {
		t.Fatal("POP ran but recorded no MCMC fits")
	}
	if snap.Histograms[obs.MCMCFitDurationSeconds].Count == 0 {
		t.Fatal("no MCMC fit durations recorded")
	}

	// Decision log records must carry span IDs that resolve in the
	// tracer ring to spans carrying POP's estimate inputs.
	var stamped, resolved, withEstimate int
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var rec cluster.LogRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad log line: %v", err)
		}
		if rec.Kind != "decision" || rec.Span == "" {
			continue
		}
		stamped++
		sp, ok := reg.Tracer().Find(rec.Span)
		if !ok {
			continue // evicted from the ring; acceptable
		}
		resolved++
		for _, a := range sp.Snapshot().Attrs {
			if a.Key == "confidence" {
				withEstimate++
				break
			}
		}
	}
	if stamped == 0 {
		t.Fatal("no span-stamped decision records in the event log")
	}
	if resolved == 0 {
		t.Fatal("no span ID resolved in the tracer ring")
	}
	if withEstimate == 0 {
		t.Fatal("no resolved span carries POP's estimate inputs")
	}

	// The introspection handler must serve this registry's state.
	srv := httptest.NewServer(NewObsHandler(reg, ObsHandlerOptions{}))
	defer srv.Close()

	body := get(t, srv.Client(), srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE hyperdrive_decisions_total counter",
		"# TYPE hyperdrive_decision_latency_seconds histogram",
		"hyperdrive_epochs_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var jsnap ObsSnapshot
	if err := json.Unmarshal([]byte(get(t, srv.Client(), srv.URL+"/metrics.json")), &jsnap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if jsnap.Histograms[obs.DecisionLatencySeconds].Count != lat.Count {
		t.Fatal("/metrics.json disagrees with direct snapshot")
	}

	var rows []ObsJobRow
	if err := json.Unmarshal([]byte(get(t, srv.Client(), srv.URL+"/jobs")), &rows); err != nil {
		t.Fatalf("/jobs: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("/jobs served an empty classification table")
	}
}

// TestSimulationEmitsSameMetricNames checks that a simulated run
// populates the same metric families as the live runtime, so
// dashboards are directly comparable.
func TestSimulationEmitsSameMetricNames(t *testing.T) {
	tr, err := CollectTrace("cifar10", 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewObsRegistry()
	if _, err := RunSimulation(SimConfig{Trace: tr, Policy: "pop", Machines: 2, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Histograms[obs.DecisionLatencySeconds].Count == 0 {
		t.Fatal("sim recorded no decision latency samples")
	}
	if snap.Counters[obs.EpochsTotal] == 0 {
		t.Fatal("sim counted no epochs")
	}
	if _, ok := snap.Gauges[obs.SlotsTotal]; !ok {
		t.Fatal("sim published no slot gauges")
	}
	if len(reg.JobTable()) == 0 {
		t.Fatal("sim published no job classification table")
	}
}

func get(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	return string(b)
}
