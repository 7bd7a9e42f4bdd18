package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// TestExecutorSlotHandOff holds every executor to the Executor
// contract's hand-off rule: a slot accepts a new Start as soon as its
// EvExited is observable. Each job is terminated at its first
// boundary and the next job is started on the same slot the moment
// the exit arrives, 200 times; a refused start (slot still busy) or a
// job that ends without training an epoch fails the test.
func TestExecutorSlotHandOff(t *testing.T) {
	const handOffs = 200
	executors := []struct {
		name  string
		build func(t *testing.T, events chan Event) Executor
	}{
		{"WorkerPool", func(t *testing.T, events chan Event) Executor {
			p, err := NewWorkerPool(1, workload.NewRegistry(), fastClock(), nil, events)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"Agent", func(t *testing.T, events chan Event) Executor {
			c, err := DialAgent(startAgent(t, AgentOptions{ID: "handoff", Slots: 1}), events)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range executors {
		t.Run(tc.name, func(t *testing.T) {
			events := make(chan Event)
			ex := tc.build(t, events)
			defer ex.Close()
			slot := ex.Slots()[0]
			cfg := param.CIFAR10Space().Sample(newTestRand())
			start := func(i int) {
				t.Helper()
				spec := StartSpec{
					Job: sched.JobID(fmt.Sprintf("job-%03d", i)), Slot: slot,
					Workload: "cifar10", Config: cfg, Seed: int64(i), MaxEpoch: 120,
				}
				if err := ex.Start(spec); err != nil {
					t.Fatalf("start %s right after the previous exit: %v", spec.Job, err)
				}
			}
			start(0)
			timeout := time.After(30 * time.Second)
			for exits := 0; exits < handOffs; {
				select {
				case ev := <-events:
					switch ev.Kind {
					case EvIterDone:
						ev.Reply <- DecisionReply{Decision: sched.Terminate}
					case EvExited:
						if ev.Reason != ExitTerminated || ev.Epoch == 0 {
							t.Fatalf("%s exited %s at epoch %d (err %v), want terminated after training",
								ev.Job, ev.Reason, ev.Epoch, ev.Err)
						}
						exits++
						if exits < handOffs {
							start(exits)
						}
					}
				case <-timeout:
					t.Fatalf("only %d of %d hand-offs finished", exits, handOffs)
				}
			}
		})
	}
}
