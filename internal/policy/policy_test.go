package policy

import (
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/appstat"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// fakeCtx is a scriptable Context for policy unit tests.
type fakeCtx struct {
	info       Info
	db         *appstat.DB
	now        time.Time
	start      time.Time
	idleSlots  int
	startQueue []sched.JobID
	active     []sched.JobID
	labels     map[sched.JobID]float64
	started    []sched.JobID
}

func newFakeCtx(info Info) *fakeCtx {
	start := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	return &fakeCtx{
		info:   info,
		db:     appstat.NewDB(),
		start:  start,
		now:    start,
		labels: make(map[sched.JobID]float64),
	}
}

func (f *fakeCtx) Info() Info       { return f.info }
func (f *fakeCtx) DB() *appstat.DB  { return f.db }
func (f *fakeCtx) Now() time.Time   { return f.now }
func (f *fakeCtx) Start() time.Time { return f.start }
func (f *fakeCtx) IdleSlots() int   { return f.idleSlots }
func (f *fakeCtx) IdleJobs() int    { return len(f.startQueue) }
func (f *fakeCtx) ActiveJobs() []sched.JobID {
	return append([]sched.JobID(nil), f.active...)
}
func (f *fakeCtx) LabelJob(id sched.JobID, p float64) {
	f.labels[id] = p
}
func (f *fakeCtx) StartIdleJob() (sched.JobID, bool) {
	if f.idleSlots == 0 || len(f.startQueue) == 0 {
		return "", false
	}
	id := f.startQueue[0]
	f.startQueue = f.startQueue[1:]
	f.idleSlots--
	f.started = append(f.started, id)
	return id, true
}

var _ Context = (*fakeCtx)(nil)

func slInfo() Info {
	return Info{
		Workload:      "cifar10",
		Target:        0.77,
		KillThreshold: 0.15,
		RandomFloor:   0.10,
		EvalBoundary:  10,
		MaxEpoch:      120,
		MetricMin:     0,
		MetricMax:     1,
		TotalSlots:    4,
		MaxDuration:   12 * time.Hour,
	}
}

func rlInfo() Info {
	return Info{
		Workload:      "lunarlander",
		Target:        200,
		KillThreshold: -100,
		RandomFloor:   -100,
		EvalBoundary:  20,
		MaxEpoch:      200,
		MetricMin:     -500,
		MetricMax:     300,
		Reward:        true,
		TotalSlots:    15,
		MaxDuration:   24 * time.Hour,
	}
}

// feed records a history into the DB with 1-minute epochs.
func feed(ctx *fakeCtx, job sched.JobID, metrics []float64) {
	for i, m := range metrics {
		ctx.db.Report(job, appstat.Stat{Epoch: i + 1, Metric: m, Duration: time.Minute})
	}
}

// risingTo generates n metrics rising from 0.1 toward final.
func risingTo(n int, final float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := float64(i+1) / float64(n)
		out[i] = 0.1 + (final-0.1)*(1-1/(1+4*x))*1.25
	}
	return out
}

// flatAt generates n metrics hovering at v.
func flatAt(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v + 0.003*float64(i%3)
	}
	return out
}

func TestInfoNormalize(t *testing.T) {
	rl := rlInfo()
	if got := rl.Normalize(-500); got != 0 {
		t.Fatalf("Normalize(-500) = %v", got)
	}
	if got := rl.Normalize(300); got != 1 {
		t.Fatalf("Normalize(300) = %v", got)
	}
	if got := rl.Normalize(-100); got != 0.5 {
		t.Fatalf("Normalize(-100) = %v", got)
	}
	if got := rl.Normalize(-9999); got != 0 {
		t.Fatalf("Normalize clamp low = %v", got)
	}
	sl := slInfo()
	if got := sl.Normalize(0.42); got != 0.42 {
		t.Fatalf("accuracy normalization should be identity, got %v", got)
	}
	degenerate := Info{MetricMin: 1, MetricMax: 1}
	if got := degenerate.Normalize(0.7); got != 0.7 {
		t.Fatalf("degenerate range should pass through, got %v", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	want := []string{"bandit", "default", "earlyterm", "pop", "sha"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	for _, name := range want {
		p, err := r.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := r.New("hyperband"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := NewDefault()
	ctx := newFakeCtx(slInfo())
	ctx.idleSlots = 2
	ctx.startQueue = []sched.JobID{"a", "b", "c"}
	p.AllocateJobs(ctx)
	if len(ctx.started) != 2 {
		t.Fatalf("started %v, want 2 jobs", ctx.started)
	}
	ev := sched.Event{Job: "a", Epoch: 10, Metric: 0.1}
	p.ApplicationStat(ctx, ev)
	if d := p.OnIterationFinish(ctx, ev); d != sched.Continue {
		t.Fatalf("default decision = %v, want continue", d)
	}
}

func TestBanditTerminatesLaggard(t *testing.T) {
	b, err := NewBandit(BanditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newFakeCtx(slInfo())
	feed(ctx, "leader", risingTo(10, 0.7))
	feed(ctx, "laggard", flatAt(10, 0.11))
	// 0.11*(1.5) = 0.165 < ~0.7: eliminate.
	if d := b.OnIterationFinish(ctx, sched.Event{Job: "laggard", Epoch: 10}); d != sched.Terminate {
		t.Fatalf("laggard decision = %v, want terminate", d)
	}
	// Leader survives trivially.
	if d := b.OnIterationFinish(ctx, sched.Event{Job: "leader", Epoch: 10}); d != sched.Continue {
		t.Fatal("leader terminated")
	}
}

func TestBanditRespectsBoundary(t *testing.T) {
	b, _ := NewBandit(BanditOptions{})
	ctx := newFakeCtx(slInfo())
	feed(ctx, "leader", risingTo(9, 0.7))
	feed(ctx, "laggard", flatAt(9, 0.11))
	if d := b.OnIterationFinish(ctx, sched.Event{Job: "laggard", Epoch: 9}); d != sched.Continue {
		t.Fatal("bandit acted off-boundary")
	}
}

func TestBanditKeepsCompetitive(t *testing.T) {
	b, _ := NewBandit(BanditOptions{})
	ctx := newFakeCtx(slInfo())
	feed(ctx, "leader", risingTo(10, 0.6))
	feed(ctx, "close", risingTo(10, 0.5))
	if d := b.OnIterationFinish(ctx, sched.Event{Job: "close", Epoch: 10}); d != sched.Continue {
		t.Fatal("competitive job terminated")
	}
}

func TestBanditRLNormalization(t *testing.T) {
	b, _ := NewBandit(BanditOptions{})
	ctx := newFakeCtx(rlInfo())
	feed(ctx, "leader", []float64{-200, -100, 0, 100, 150, 180, 200, 210, 220, 230,
		235, 240, 245, 250, 250, 250, 250, 250, 250, 250})
	feed(ctx, "hopeless", flatAt(20, -400))
	// Normalized: hopeless best ~0.125*1.5 = 0.19 < leader ~0.94.
	if d := b.OnIterationFinish(ctx, sched.Event{Job: "hopeless", Epoch: 20}); d != sched.Terminate {
		t.Fatal("hopeless RL job not terminated")
	}
}

func TestBanditRejectsNegativeEpsilon(t *testing.T) {
	if _, err := NewBandit(BanditOptions{Epsilon: -1}); err == nil {
		t.Fatal("NewBandit accepted negative epsilon")
	}
}

func TestEarlyTermTerminatesHopeless(t *testing.T) {
	e, err := NewEarlyTerm(EarlyTermOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newFakeCtx(slInfo())
	feed(ctx, "leader", risingTo(30, 0.75))
	feed(ctx, "flat", flatAt(30, 0.12))
	if d := e.OnIterationFinish(ctx, sched.Event{Job: "flat", Epoch: 30}); d != sched.Terminate {
		t.Fatal("hopeless flat job survived predictive termination")
	}
	if e.Fits().Value() == 0 {
		t.Fatal("no fits recorded")
	}
}

func TestEarlyTermKeepsLeaderAndRisers(t *testing.T) {
	e, _ := NewEarlyTerm(EarlyTermOptions{})
	ctx := newFakeCtx(slInfo())
	feed(ctx, "leader", risingTo(30, 0.75))
	feed(ctx, "riser", risingTo(30, 0.7))
	if d := e.OnIterationFinish(ctx, sched.Event{Job: "leader", Epoch: 30}); d != sched.Continue {
		t.Fatal("leader terminated")
	}
	if d := e.OnIterationFinish(ctx, sched.Event{Job: "riser", Epoch: 30}); d != sched.Continue {
		t.Fatal("strong riser terminated")
	}
}

func TestEarlyTermBoundary(t *testing.T) {
	e, _ := NewEarlyTerm(EarlyTermOptions{})
	ctx := newFakeCtx(slInfo())
	feed(ctx, "leader", risingTo(20, 0.75))
	feed(ctx, "flat", flatAt(20, 0.12))
	// Epoch 20 is not a multiple of the b=30 supervised boundary.
	if d := e.OnIterationFinish(ctx, sched.Event{Job: "flat", Epoch: 20}); d != sched.Continue {
		t.Fatal("earlyterm acted off its 30-epoch boundary")
	}
}

func TestEarlyTermRejectsBadDelta(t *testing.T) {
	if _, err := NewEarlyTerm(EarlyTermOptions{Delta: 1.5}); err == nil {
		t.Fatal("NewEarlyTerm accepted delta >= 1")
	}
}

func TestPOPKillsNonLearner(t *testing.T) {
	p, err := NewPOP(POPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newFakeCtx(slInfo())
	feed(ctx, "dead", flatAt(10, 0.10))
	ctx.active = []sched.JobID{"dead"}
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "dead", Epoch: 10}); d != sched.Terminate {
		t.Fatal("non-learner survived the kill threshold")
	}
	if p.Fits().Value() != 0 {
		t.Fatal("kill-threshold pruning should happen before prediction")
	}
}

func TestPOPKillThresholdAblation(t *testing.T) {
	p, _ := NewPOP(POPOptions{DisableKillThreshold: true})
	ctx := newFakeCtx(slInfo())
	feed(ctx, "dead", flatAt(20, 0.10))
	ctx.active = []sched.JobID{"dead"}
	// Without the kill threshold the flat job still dies once the
	// confidence floor applies (after MinPruneEpochs = 2 boundaries),
	// but only after paying for predictions.
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "dead", Epoch: 20}); d != sched.Terminate {
		t.Fatal("hopeless job survived confidence floor")
	}
	if p.Fits().Value() == 0 {
		t.Fatal("ablation should have paid for a prediction")
	}
}

func TestPOPPromisingContinues(t *testing.T) {
	p, _ := NewPOP(POPOptions{})
	ctx := newFakeCtx(slInfo())
	ctx.now = ctx.start.Add(40 * time.Minute)
	feed(ctx, "star", risingTo(40, 0.80))
	ctx.active = []sched.JobID{"star"}
	ctx.startQueue = []sched.JobID{"waiting"}
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "star", Epoch: 40}); d != sched.Continue {
		t.Fatalf("strong riser got %v, want continue", d)
	}
	if len(ctx.labels) == 0 {
		t.Fatal("promising job not labelled")
	}
	ests := p.Estimates()
	if e, ok := ests["star"]; !ok || e.Confidence < 0.3 {
		t.Fatalf("estimate for star = %+v", ests)
	}
}

func TestPOPSuspendsOpportunisticWhenOthersWait(t *testing.T) {
	p, _ := NewPOP(POPOptions{})
	ctx := newFakeCtx(slInfo())
	ctx.now = ctx.start.Add(40 * time.Minute)
	// A star occupies the promising pool; "meh" is learning but far
	// from the target, so it lands in the opportunistic pool.
	feed(ctx, "star", risingTo(40, 0.80))
	feed(ctx, "meh", risingTo(40, 0.45))
	ctx.active = []sched.JobID{"star", "meh"}
	ctx.startQueue = []sched.JobID{"waiting1", "waiting2"}
	// Prime star's estimate first.
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "star", Epoch: 40}); d != sched.Continue {
		t.Fatal("star should continue")
	}
	d := p.OnIterationFinish(ctx, sched.Event{Job: "meh", Epoch: 40})
	if d != sched.Suspend && d != sched.Terminate {
		t.Fatalf("opportunistic decision = %v, want suspend (or terminate if confidence floor)", d)
	}
}

func TestPOPNoSuspendWithEmptyQueue(t *testing.T) {
	p, _ := NewPOP(POPOptions{})
	ctx := newFakeCtx(slInfo())
	ctx.now = ctx.start.Add(40 * time.Minute)
	feed(ctx, "meh", risingTo(40, 0.60))
	ctx.active = []sched.JobID{"meh"}
	// No waiting jobs: suspending would idle the slot.
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "meh", Epoch: 40}); d == sched.Suspend {
		t.Fatal("suspended with nothing to run instead")
	}
}

func TestPOPConfidenceFloorTerminates(t *testing.T) {
	p, _ := NewPOP(POPOptions{})
	ctx := newFakeCtx(slInfo())
	ctx.now = ctx.start.Add(40 * time.Minute)
	// Learning but plateaued far below target: P(reach 0.77) ~ 0.
	feed(ctx, "plateau", flatAt(40, 0.35))
	ctx.active = []sched.JobID{"plateau"}
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "plateau", Epoch: 40}); d != sched.Terminate {
		t.Fatalf("plateaued job got %v, want terminate (confidence floor)", d)
	}
}

func TestPOPOffBoundaryContinues(t *testing.T) {
	p, _ := NewPOP(POPOptions{})
	ctx := newFakeCtx(slInfo())
	feed(ctx, "a", flatAt(7, 0.10))
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "a", Epoch: 7}); d != sched.Continue {
		t.Fatal("POP acted off-boundary")
	}
}

func TestPOPInstantAccuracyAblation(t *testing.T) {
	p, err := NewPOP(POPOptions{InstantAccuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newFakeCtx(slInfo())
	ctx.now = ctx.start.Add(40 * time.Minute)
	feed(ctx, "fast", risingTo(40, 0.74))
	ctx.active = []sched.JobID{"fast"}
	if d := p.OnIterationFinish(ctx, sched.Event{Job: "fast", Epoch: 40}); d != sched.Continue {
		t.Fatalf("instant-accuracy decision = %v", d)
	}
	if p.Fits().Value() != 0 {
		t.Fatal("instant-accuracy ablation must not run curve fits")
	}
}

func TestPOPStaticThresholdAblation(t *testing.T) {
	p, err := NewPOP(POPOptions{StaticThreshold: 0.5, InstantAccuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newFakeCtx(slInfo())
	ctx.now = ctx.start.Add(40 * time.Minute)
	feed(ctx, "fast", risingTo(40, 0.74))
	ctx.active = []sched.JobID{"fast"}
	p.OnIterationFinish(ctx, sched.Event{Job: "fast", Epoch: 40})
	alloc := p.Allocation(ctx)
	if alloc.Threshold != 0.5 {
		t.Fatalf("static threshold = %v, want 0.5", alloc.Threshold)
	}
}

func TestPOPDynamicTarget(t *testing.T) {
	p, _ := NewPOP(POPOptions{DynamicTarget: true})
	info := slInfo()
	before := p.target(info)
	p.ObserveBest(info, 0.80) // beat the 0.77 target
	after := p.target(info)
	if after <= before {
		t.Fatalf("dynamic target did not rise: %v -> %v", before, after)
	}
	if after > 1 {
		t.Fatalf("dynamic target exceeded 1: %v", after)
	}
	// Without the extension, ObserveBest is inert.
	q, _ := NewPOP(POPOptions{})
	tBefore := q.target(info)
	q.ObserveBest(info, 0.99)
	if q.target(info) != tBefore {
		t.Fatal("ObserveBest moved target without DynamicTarget")
	}
}

func TestPOPOptionValidation(t *testing.T) {
	if _, err := NewPOP(POPOptions{ConfidenceFloor: -0.1}); err == nil {
		t.Fatal("accepted negative confidence floor")
	}
	if _, err := NewPOP(POPOptions{SlotsPerJob: -1}); err == nil {
		t.Fatal("accepted negative slots per job")
	}
}

func TestBoundaryHelper(t *testing.T) {
	if got := boundary(0, Info{EvalBoundary: 10}); got != 10 {
		t.Fatalf("boundary = %d, want workload default", got)
	}
	if got := boundary(5, Info{EvalBoundary: 10}); got != 5 {
		t.Fatalf("boundary = %d, want configured value", got)
	}
	if got := boundary(0, Info{}); got != 1 {
		t.Fatalf("boundary = %d, want 1 fallback", got)
	}
	// §9 heuristic: no workload boundary -> ~7%% of the max epoch.
	if got := boundary(0, Info{MaxEpoch: 150}); got != 10 {
		t.Fatalf("boundary = %d, want 10 (150/15)", got)
	}
}

func TestEarlyTermRLBoundary(t *testing.T) {
	e, _ := NewEarlyTerm(EarlyTermOptions{})
	ctx := newFakeCtx(rlInfo()) // Reward workload, EvalBoundary 20
	ctx.info.Reward = true
	feed(ctx, "leader", risingTo(20, 250))
	feed(ctx, "flat", flatAt(20, -400))
	// Epoch 20 IS the RL boundary (2,000 trials): EarlyTerm must act.
	if d := e.OnIterationFinish(ctx, sched.Event{Job: "flat", Epoch: 20}); d != sched.Terminate {
		t.Fatalf("earlyterm did not act at the RL boundary: %v", d)
	}
}
