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

// trainingJob is one job bound to an executor slot: the trainer, the
// channel its iteration boundaries wait on, and its stop request. The
// in-process WorkerPool and the remote Agent both run it with run.
type trainingJob struct {
	spec    StartSpec
	trainer workload.Trainer
	// verdict is reused for every iteration-boundary round trip: the
	// scheduler sends exactly one DecisionReply per boundary and the
	// loop consumes it before raising the next, so one buffered channel
	// suffices — no per-decision allocation.
	verdict  chan DecisionReply
	stop     chan struct{}
	stopOnce sync.Once
}

// newTrainingJob builds the job's trainer from the registry, restoring
// it from spec.Snapshot when the job resumes.
func newTrainingJob(reg *workload.Registry, spec StartSpec) (*trainingJob, error) {
	ws, err := reg.Lookup(spec.Workload)
	if err != nil {
		return nil, err
	}
	trainer := ws.New(spec.Config, spec.Seed)
	if len(spec.Snapshot) > 0 {
		payload, err := checkpoint.Decode(spec.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("cluster: resume %s: %w", spec.Job, err)
		}
		if err := trainer.Restore(payload); err != nil {
			return nil, fmt.Errorf("cluster: resume %s: %w", spec.Job, err)
		}
	}
	return &trainingJob{
		spec:    spec,
		trainer: trainer,
		verdict: make(chan DecisionReply, 1),
		stop:    make(chan struct{}),
	}, nil
}

// requestStop asks the loop to end the job as terminated. Safe to call
// any number of times, from any goroutine.
func (j *trainingJob) requestStop() {
	j.stopOnce.Do(func() { close(j.stop) })
}

// jobSink is the transport a training loop reports through: the
// WorkerPool's event channel or the Agent's wire connection. A false
// result means the report could not be delivered (the job was stopped
// mid-send, or the connection is gone) and the loop ends the job.
type jobSink interface {
	// stat reports one trained epoch.
	stat(s workload.Sample) bool
	// boundary raises the iteration boundary after epoch; the verdict
	// arrives on the job's verdict channel.
	boundary(epoch int) bool
	// suspending runs before the snapshot is taken for a Suspend
	// verdict whose span context is parent.
	suspending(epoch int, parent obs.SpanContext)
	// snapshot ships the suspended job's checkpoint image.
	snapshot(epoch int, img checkpoint.Image, parent obs.SpanContext) bool
	// exit frees the job's slot and then reports why the job left it:
	// the slot is free before the exit is observable, so the scheduler
	// may start the next job on it the moment it hears of the exit.
	// verdict is the span context of the verdict that ended the job
	// (zero when none did).
	exit(epoch int, reason ExitReason, err error, verdict obs.SpanContext)
}

// run is the Node Agent's per-job state machine (paper §4.2): train an
// epoch (sleeping its simulated duration on clk), report the
// statistic, raise the iteration boundary, and act on the scheduler's
// verdict — continue, suspend (snapshot through capturer, nil for free
// suspends), or terminate. A stop request ends the job as terminated
// at the next epoch start or while it waits for a verdict.
func (j *trainingJob) run(clk clock.Clock, capturer *checkpoint.Capturer, sink jobSink) {
	for {
		select {
		case <-j.stop:
			sink.exit(j.trainer.Epoch(), ExitTerminated, nil, obs.SpanContext{})
			return
		default:
		}

		s, done := j.trainer.Step()
		clk.Sleep(s.Duration)
		if !sink.stat(s) {
			sink.exit(s.Epoch, ExitTerminated, nil, obs.SpanContext{})
			return
		}
		if done {
			sink.exit(s.Epoch, ExitCompleted, nil, obs.SpanContext{})
			return
		}
		if !sink.boundary(s.Epoch) {
			sink.exit(s.Epoch, ExitTerminated, nil, obs.SpanContext{})
			return
		}
		var dr DecisionReply
		select {
		case dr = <-j.verdict:
		case <-j.stop:
			sink.exit(s.Epoch, ExitTerminated, nil, obs.SpanContext{})
			return
		}

		switch dr.Decision {
		case sched.Terminate:
			sink.exit(s.Epoch, ExitTerminated, nil, dr.Trace)
			return
		case sched.Suspend:
			sink.suspending(s.Epoch, dr.Trace)
			img, err := j.capture(clk, capturer)
			epoch, reason := j.trainer.Epoch(), ExitSuspended
			if err != nil {
				reason = ExitError
			} else if !sink.snapshot(epoch, img, dr.Trace) {
				reason = ExitTerminated
			}
			sink.exit(epoch, reason, err, dr.Trace)
			return
		default: // Continue
		}
	}
}

// capture snapshots the trainer into a checkpoint image, spending the
// modeled capture latency on clk: suspending costs experiment time.
func (j *trainingJob) capture(clk clock.Clock, capturer *checkpoint.Capturer) (checkpoint.Image, error) {
	payload, err := j.trainer.Snapshot()
	if err != nil {
		return checkpoint.Image{}, err
	}
	if capturer == nil {
		return checkpoint.Image{Payload: payload, Size: len(payload)}, nil
	}
	img := capturer.Capture(payload)
	clk.Sleep(img.Latency)
	return img, nil
}
