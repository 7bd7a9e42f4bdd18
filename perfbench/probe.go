package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// goid returns the calling goroutine's ID. The job-side probe uses it
// to pair an executor's epoch sleep with the next call the same job
// goroutine makes into its trainer; it costs about a microsecond and
// runs three times per epoch.
func goid() int64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// jobProbe measures decision turnaround from the job's side. Every
// executor (worker pool or node agent) runs the same loop per job:
// trainer.Step, clock.Sleep(epoch), report, wait for the verdict, then
// trainer.Step again (continue) or trainer.Snapshot (suspend). The
// probe wraps the executor's Clock and its workload Registry; the wait
// is the wall time from the end of the epoch's sleep to the trainer's
// next Step or Snapshot on the same goroutine.
type jobProbe struct {
	clk      clock.Clock // the wrapped experiment clock
	target   float64
	boundary int
	traced   bool

	mu            sync.Mutex
	slept         map[int64]time.Time // goroutine -> wall time its epoch sleep ended
	atTarget      map[int64]bool      // goroutine slept through an at-target epoch
	boundaryMs    []float64
	epochMs       []float64
	waits         []jobWait // traced: every wait with its job's seed and epoch
	firstTarget   time.Time // experiment clock; zero until an epoch reaches target
	steps         int
	stepUs        []float64 // traced
	startUs       []float64 // traced: placement (trainer built) -> first Step
	snapshots     [][]byte  // traced: payloads handed to the checkpoint layer
	suspendEpochs []int     // epoch of every snapshot (suspend)
}

// jobWait is one job-side wait, kept for pairing with the policy's own
// time on the same decision.
type jobWait struct {
	seed     int64
	epoch    int
	boundary bool
	ms       float64
}

func newJobProbe(clk clock.Clock, target float64, boundary int, traced bool) *jobProbe {
	return &jobProbe{
		clk: clk, target: target, boundary: boundary, traced: traced,
		slept: map[int64]time.Time{}, atTarget: map[int64]bool{},
	}
}

// Now, After and Since pass through; Sleep stamps the sleep's end.
func (p *jobProbe) Now() time.Time                         { return p.clk.Now() }
func (p *jobProbe) After(d time.Duration) <-chan time.Time { return p.clk.After(d) }
func (p *jobProbe) Since(t time.Time) time.Duration        { return p.clk.Since(t) }

func (p *jobProbe) Sleep(d time.Duration) {
	p.clk.Sleep(d)
	end := time.Now()
	id := goid()
	p.mu.Lock()
	p.slept[id] = end
	if p.atTarget[id] {
		delete(p.atTarget, id)
		if p.firstTarget.IsZero() {
			p.firstTarget = p.clk.Now()
		}
	}
	p.mu.Unlock()
}

// registry returns a workload registry whose trainers report to p.
func (p *jobProbe) registry() *workload.Registry {
	base := workload.NewRegistry()
	reg := workload.NewRegistry()
	for _, name := range base.Names() {
		spec, _ := base.Lookup(name)
		reg.Register(probedSpec{Spec: spec, p: p})
	}
	return reg
}

type probedSpec struct {
	workload.Spec
	p *jobProbe
}

func (s probedSpec) New(cfg param.Config, seed int64) workload.Trainer {
	return &probedTrainer{Trainer: s.Spec.New(cfg, seed), p: s.p, seed: seed, born: time.Now()}
}

type probedTrainer struct {
	workload.Trainer
	p       *jobProbe
	seed    int64
	born    time.Time
	stepped bool
}

// waited closes the job-side wait that ends with this call, if one is
// open on the calling goroutine.
func (t *probedTrainer) waited() {
	now := time.Now()
	id := goid()
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	end, ok := p.slept[id]
	if !ok {
		return
	}
	delete(p.slept, id)
	epoch := t.Trainer.Epoch()
	w := jobWait{seed: t.seed, epoch: epoch, boundary: epoch%p.boundary == 0, ms: ms(now.Sub(end))}
	if w.boundary {
		p.boundaryMs = append(p.boundaryMs, w.ms)
	} else {
		p.epochMs = append(p.epochMs, w.ms)
	}
	if p.traced {
		p.waits = append(p.waits, w)
	}
}

func (t *probedTrainer) Step() (workload.Sample, bool) {
	t.waited()
	if t.p.traced && !t.stepped {
		t.p.mu.Lock()
		t.p.startUs = append(t.p.startUs, us(time.Since(t.born)))
		t.p.mu.Unlock()
	}
	t.stepped = true
	t0 := time.Now()
	s, done := t.Trainer.Step()
	d := time.Since(t0)
	id := goid()
	t.p.mu.Lock()
	t.p.steps++
	if t.p.traced {
		t.p.stepUs = append(t.p.stepUs, us(d))
	}
	if s.Metric >= t.p.target {
		t.p.atTarget[id] = true
	}
	t.p.mu.Unlock()
	return s, done
}

func (t *probedTrainer) Snapshot() ([]byte, error) {
	t.waited()
	b, err := t.Trainer.Snapshot()
	t.p.mu.Lock()
	t.p.suspendEpochs = append(t.p.suspendEpochs, t.Trainer.Epoch())
	if t.p.traced && err == nil {
		t.p.snapshots = append(t.p.snapshots, append([]byte(nil), b...))
	}
	t.p.mu.Unlock()
	return b, err
}

// timedPolicy times the three up-calls of the policy it wraps. It
// forwards the fit counter and unwraps, so engines that look for the
// concrete POP or count fits see the same policy they would unwrapped.
type timedPolicy struct {
	inner    policy.Policy
	boundary int
	// onBoundary, when set, sees every boundary decision before the
	// policy does (the traced run captures fit inputs here).
	onBoundary func(ctx policy.Context, ev sched.Event)

	boundaryMs []float64
	epochUs    []float64
	allocUs    []float64
	total      time.Duration           // inside all three up-calls
	decisions  map[decisionKey]float64 // traced live runs: policy ms per decision

	// eventUs is, for an engine that handles one epoch at a time (the
	// simulator), the wall time from one statistic's arrival to the
	// next's, kept when the first epoch ended in a continue verdict off
	// a boundary: the engine's whole turnaround for an ordinary epoch.
	eventUs  []float64
	lastStat time.Time
	ordinary bool
}

type decisionKey struct {
	job   sched.JobID
	epoch int
}

func newTimedPolicy(inner policy.Policy, boundary int) *timedPolicy {
	return &timedPolicy{inner: inner, boundary: boundary}
}

func (p *timedPolicy) Name() string          { return p.inner.Name() }
func (p *timedPolicy) Unwrap() policy.Policy { return p.inner }
func (p *timedPolicy) Fits() *obs.Counter {
	if fc, ok := p.inner.(policy.FitCounter); ok {
		return fc.Fits()
	}
	return nil
}

func (p *timedPolicy) AllocateJobs(ctx policy.Context) {
	t0 := time.Now()
	p.inner.AllocateJobs(ctx)
	d := time.Since(t0)
	p.total += d
	p.allocUs = append(p.allocUs, us(d))
}

func (p *timedPolicy) ApplicationStat(ctx policy.Context, ev sched.Event) {
	t0 := time.Now()
	if p.ordinary {
		p.eventUs = append(p.eventUs, us(t0.Sub(p.lastStat)))
	}
	p.lastStat, p.ordinary = t0, false
	p.inner.ApplicationStat(ctx, ev)
	p.total += time.Since(t0)
}

func (p *timedPolicy) OnIterationFinish(ctx policy.Context, ev sched.Event) sched.Decision {
	boundary := ev.Epoch%p.boundary == 0
	if boundary && p.onBoundary != nil {
		p.onBoundary(ctx, ev)
	}
	t0 := time.Now()
	d := p.inner.OnIterationFinish(ctx, ev)
	el := time.Since(t0)
	p.total += el
	p.ordinary = !boundary && d == sched.Continue
	if boundary {
		p.boundaryMs = append(p.boundaryMs, ms(el))
	} else {
		p.epochUs = append(p.epochUs, us(el))
	}
	if p.decisions != nil {
		p.decisions[decisionKey{ev.Job, ev.Epoch}] = ms(el)
	}
	return d
}

var (
	_ policy.Policy     = (*timedPolicy)(nil)
	_ policy.FitCounter = (*timedPolicy)(nil)
	_ clock.Clock       = (*jobProbe)(nil)
)
