package cluster

import (
	"fmt"
	"sync"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// WorkerPool is the in-process Executor: one goroutine per slot
// running synthetic trainers against the experiment clock. It is the
// single-machine deployment of HyperDrive (the paper co-locates the
// scheduler with training machines in the private-cluster setup).
type WorkerPool struct {
	registry *workload.Registry
	clk      clock.Clock
	events   chan<- Event
	capturer *checkpoint.Capturer
	// quit is closed by Close. It unblocks the exit report of a job
	// that already gave its slot back, which Close can no longer reach
	// through the slot table.
	quit chan struct{}

	mu      sync.Mutex
	slots   []SlotID
	running map[SlotID]*trainingJob
	closed  bool
	wg      sync.WaitGroup
}

// NewWorkerPool builds a pool with n slots. Events are delivered on
// events; the capturer models snapshot size/latency (may be nil for
// free suspends).
func NewWorkerPool(n int, registry *workload.Registry, clk clock.Clock, capturer *checkpoint.Capturer, events chan<- Event) (*WorkerPool, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: worker pool needs >= 1 slot, got %d", n)
	}
	if registry == nil || clk == nil || events == nil {
		return nil, fmt.Errorf("cluster: worker pool needs registry, clock, and event channel")
	}
	p := &WorkerPool{
		registry: registry,
		clk:      clk,
		events:   events,
		capturer: capturer,
		quit:     make(chan struct{}),
		running:  make(map[SlotID]*trainingJob),
	}
	for i := 0; i < n; i++ {
		p.slots = append(p.slots, SlotID(fmt.Sprintf("worker-%d", i)))
	}
	return p, nil
}

// Slots implements Executor.
func (p *WorkerPool) Slots() []SlotID {
	return append([]SlotID(nil), p.slots...)
}

// Start implements Executor.
func (p *WorkerPool) Start(spec StartSpec) error {
	j, err := newTrainingJob(p.registry, spec)
	if err != nil {
		return err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("cluster: worker pool closed")
	}
	if _, busy := p.running[spec.Slot]; busy {
		return fmt.Errorf("cluster: slot %s already busy", spec.Slot)
	}
	known := false
	for _, s := range p.slots {
		if s == spec.Slot {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("cluster: unknown slot %s", spec.Slot)
	}
	p.running[spec.Slot] = j
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		j.run(p.clk, p.capturer, workerSink{p: p, j: j})
	}()
	return nil
}

// Close implements Executor: stops all jobs and waits for their
// goroutines.
func (p *WorkerPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.quit)
	for _, j := range p.running {
		j.requestStop()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// StopJob implements JobStopper: asynchronously stop the job bound to
// slot. The loop acknowledges with an EvExited/ExitTerminated event.
func (p *WorkerPool) StopJob(job sched.JobID, slot SlotID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.running[slot]
	if !ok || j.spec.Job != job {
		return fmt.Errorf("cluster: job %s not running on slot %s", job, slot)
	}
	j.requestStop()
	return nil
}

// workerSink reports one pool job's progress as Events.
type workerSink struct {
	p *WorkerPool
	j *trainingJob
}

// emit delivers an event unless the job is asked to stop.
func (w workerSink) emit(ev Event) bool {
	select {
	case w.p.events <- ev:
		return true
	case <-w.j.stop:
		return false
	}
}

func (w workerSink) stat(s workload.Sample) bool {
	return w.emit(Event{
		Kind: EvStat, Job: w.j.spec.Job, Slot: w.j.spec.Slot,
		Epoch: s.Epoch, Metric: s.Metric, Duration: s.Duration,
	})
}

func (w workerSink) boundary(epoch int) bool {
	spec := &w.j.spec
	return w.emit(Event{Kind: EvIterDone, Job: spec.Job, Slot: spec.Slot, Epoch: epoch, Reply: w.j.verdict, Trace: spec.Trace})
}

func (w workerSink) suspending(int, obs.SpanContext) {}

func (w workerSink) snapshot(epoch int, img checkpoint.Image, parent obs.SpanContext) bool {
	return w.emit(Event{
		Kind: EvSnapshot, Job: w.j.spec.Job, Slot: w.j.spec.Slot, Epoch: epoch,
		Snapshot: img.Encode(), SnapSize: img.Size, SnapLat: img.Latency, Trace: parent,
	})
}

// exit frees the slot, then delivers the job's terminal event. The
// event must not be lost — it is what lets the scheduler's shutdown
// drain release the slot — so it waits for a reader even after a stop
// request, and gives up only when the pool closes.
func (w workerSink) exit(epoch int, reason ExitReason, err error, verdict obs.SpanContext) {
	spec := &w.j.spec
	w.p.mu.Lock()
	delete(w.p.running, spec.Slot)
	w.p.mu.Unlock()
	if !verdict.Valid() {
		verdict = spec.Trace
	}
	select {
	case w.p.events <- Event{Kind: EvExited, Job: spec.Job, Slot: spec.Slot, Epoch: epoch, Reason: reason, Err: err, Trace: verdict}:
	case <-w.p.quit:
	}
}

var (
	_ Executor   = (*WorkerPool)(nil)
	_ JobStopper = (*WorkerPool)(nil)
)
