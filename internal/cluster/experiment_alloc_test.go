package cluster

import (
	"testing"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// continueStub models the off-boundary steady state: the policy lets
// every iteration run and never evaluates the job.
type continueStub struct{}

func (continueStub) Name() string                                { return "continue-stub" }
func (continueStub) AllocateJobs(policy.Context)                 {}
func (continueStub) ApplicationStat(policy.Context, sched.Event) {}
func (continueStub) OnIterationFinish(policy.Context, sched.Event) sched.Decision {
	return sched.Continue
}

// TestDecisionPathAllocationFree pins the hot-path guarantee: an
// off-boundary continue decision — policy verdict, latency histogram,
// decision counter, event-log append — runs
// without a single heap allocation. A regression here multiplies into
// GC pressure at tens of thousands of decisions per second.
func TestDecisionPathAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := expConfig(t, continueStub{}, 1, 1)
	cfg.Obs = reg
	w := newGateWriter()
	l := NewEventLogBuffer(w, 1<<15)
	cfg.EventLog = l
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.addJob("j1", param.Config{"x": 1}, 1); err != nil {
		t.Fatal(err)
	}

	ev := Event{Kind: EvIterDone, Job: "j1", Epoch: 3}
	// Warm the decision path and wedge the flusher in its first Write, so
	// the background JSON encoding cannot pollute the measurement;
	// every logged record lands in the (preallocated) append buffer.
	e.handleIterDone(ev)
	<-w.started

	allocs := testing.AllocsPerRun(2000, func() { e.handleIterDone(ev) })
	if allocs != 0 {
		t.Fatalf("continue decision allocates %.1f objects per run, want 0", allocs)
	}

	close(w.release)
	l.Close()
}
