// Package serve hosts many concurrent experiments in one process: a
// weighted fair-share broker over the shared slot pool, per-tenant
// rate limiting, and the hyperdrived HTTP/JSON API.
package serve

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

// Broker carves per-tenant weighted fair shares out of one shared slot
// pool. Each hosted experiment holds a Lease — a cluster.SlotPool view
// that lets it reserve up to its share of the pool, borrow idle slots
// other tenants are not waiting for, and never take the last slot an
// under-share tenant needs. Convergence rides on slot churn: an
// over-share tenant cannot reserve, so every slot it releases flows to
// the tenants still below their share.
type Broker struct {
	pool cluster.SlotPool
	reg  *obs.Registry
	// wake, when non-nil, runs after a slot returns to the shared pool
	// (outside the broker lock): the server uses it to nudge starved
	// experiments with EvWake.
	wake func()
	// now is the clock behind starvation timing; swapped in tests. Only
	// read when reg is non-nil, so the uninstrumented path never touches
	// the clock.
	now func() time.Time

	attainment *obs.Histogram
	starved    *obs.Gauge
	mismatch   *obs.Counter

	mu      sync.Mutex
	tenants map[string]*tenant
}

type tenant struct {
	name   string
	weight float64
	leases map[*Lease]struct{}
	// Fleet telemetry refreshed by Sample rather than on every slot
	// transition: deficit and starvation need a full walk anyway.
	leaseHeld    *obs.Gauge
	leaseShare   *obs.Gauge
	leaseDeficit *obs.Gauge
	leaseStarved *obs.Gauge
}

// NewBroker wraps a shared pool. reg (optional) receives per-tenant
// lease gauges and fairness telemetry; a nil reg disables all of
// it, including starvation clock reads. wake (optional) runs after
// every slot release.
func NewBroker(pool cluster.SlotPool, reg *obs.Registry, wake func()) *Broker {
	b := &Broker{pool: pool, reg: reg, wake: wake, now: time.Now, tenants: make(map[string]*tenant)}
	if reg != nil {
		b.attainment = reg.Histogram(obs.ServeFairshareAttainment, obs.AttainmentBuckets...)
		b.starved = reg.Gauge(obs.ServeStarvedLeases)
		b.mismatch = reg.Counter(obs.ServeLeaseReleaseMismatchTotal)
	}
	return b
}

// Join registers one experiment under a tenant and returns its lease.
// A non-positive weight defaults to 1; re-joining an existing tenant
// with a different positive weight updates it (latest wins).
func (b *Broker) Join(name string, weight float64) *Lease {
	if weight <= 0 {
		weight = 1
	}
	b.mu.Lock()
	t := b.tenants[name]
	if t == nil {
		t = &tenant{
			name:         name,
			leases:       make(map[*Lease]struct{}),
			leaseHeld:    b.reg.Gauge(obs.ServeLeaseHeld(name)),
			leaseShare:   b.reg.Gauge(obs.ServeLeaseShare(name)),
			leaseDeficit: b.reg.Gauge(obs.ServeLeaseDeficit(name)),
			leaseStarved: b.reg.Gauge(obs.ServeLeaseStarvedSeconds(name)),
		}
		b.tenants[name] = t
	}
	t.weight = weight
	l := &Lease{b: b, t: t, held: make(map[cluster.SlotID]struct{})}
	t.leases[l] = struct{}{}
	// Latch the share hint now so Info.TotalSlots is stable for the
	// experiment's whole life (policies size their slot division off it).
	l.total = b.ceilShareLocked(t)
	if l.total < 1 {
		l.total = 1
	}
	b.mu.Unlock()
	return l
}

// shareLocked is the tenant's fair slot share: weight over the total
// weight of tenants that currently hold at least one lease.
func (b *Broker) shareLocked(t *tenant) float64 {
	var sum float64
	for _, o := range b.tenants {
		if len(o.leases) > 0 {
			sum += o.weight
		}
	}
	if sum == 0 || len(t.leases) == 0 {
		return 0
	}
	return t.weight / sum * float64(b.pool.Total())
}

func (b *Broker) ceilShareLocked(t *tenant) int {
	return int(math.Ceil(b.shareLocked(t)))
}

// allowanceLocked is one lease's slice of its tenant's share: tenants
// with several experiments split their share evenly.
func (b *Broker) allowanceLocked(l *Lease) int {
	n := len(l.t.leases)
	if n == 0 {
		return 0
	}
	a := int(math.Ceil(b.shareLocked(l.t) / float64(n)))
	if a < 1 {
		a = 1
	}
	return a
}

// deficitLocked sums how many slots leases other than l are still owed
// (allowance minus held, floored at zero). Borrowing may not dip into
// this reserve: idle capacity owed to an under-share tenant stays
// reservable by that tenant only.
func (b *Broker) deficitLocked(l *Lease) int {
	var d int
	for _, t := range b.tenants {
		for o := range t.leases {
			if o == l || o.paused {
				continue
			}
			if owed := b.allowanceLocked(o) - len(o.held); owed > 0 {
				d += owed
			}
		}
	}
	return d
}

func (b *Broker) heldLocked(t *tenant) int {
	var n int
	for l := range t.leases {
		n += len(l.held)
	}
	return n
}

// TenantStatus is the broker's public view of one tenant.
type TenantStatus struct {
	Tenant         string  `json:"tenant"`
	Weight         float64 `json:"weight"`
	ShareSlots     float64 `json:"shareSlots"`
	HeldSlots      int     `json:"heldSlots"`
	Experiments    int     `json:"experiments"`
	StarvedSeconds float64 `json:"starvedSeconds,omitempty"`
}

// Tenant reports a tenant's current weight, fair share, and holdings.
func (b *Broker) Tenant(name string) (TenantStatus, bool) {
	var now time.Time
	if b.reg != nil {
		now = b.now()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tenants[name]
	if !ok {
		return TenantStatus{}, false
	}
	return TenantStatus{
		Tenant:         name,
		Weight:         t.weight,
		ShareSlots:     b.shareLocked(t),
		HeldSlots:      b.heldLocked(t),
		Experiments:    len(t.leases),
		StarvedSeconds: b.worstStarvedLocked(t, now).Seconds(),
	}, true
}

// worstStarvedLocked is the longest any of the tenant's leases has
// been starved as of now; zero when none are (or now is the zero time,
// i.e. the broker is uninstrumented).
func (b *Broker) worstStarvedLocked(t *tenant, now time.Time) time.Duration {
	if now.IsZero() {
		return 0
	}
	var worst time.Duration
	for l := range t.leases {
		if l.starvedSince.IsZero() {
			continue
		}
		if d := now.Sub(l.starvedSince); d > worst {
			worst = d
		}
	}
	return worst
}

// Sample refreshes the broker's fleet telemetry: per-tenant
// serve_lease_held/share/deficit/starved_seconds gauges, the starved
// lease count, and one fair-share attainment observation (held over
// allowance) per active lease. The server's kicker calls it on every
// tick; it is a no-op on an uninstrumented broker.
func (b *Broker) Sample() {
	if b.reg == nil {
		return
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	var starvedCount int
	for _, t := range b.tenants {
		var held, deficit int
		for l := range t.leases {
			held += len(l.held)
			if l.paused || l.closed {
				continue
			}
			allowance := b.allowanceLocked(l)
			if owed := allowance - len(l.held); owed > 0 {
				deficit += owed
			}
			b.attainment.Observe(float64(len(l.held)) / float64(allowance))
			if !l.starvedSince.IsZero() {
				starvedCount++
			}
		}
		t.leaseHeld.Set(float64(held))
		t.leaseShare.Set(b.shareLocked(t))
		t.leaseDeficit.Set(float64(deficit))
		t.leaseStarved.Set(b.worstStarvedLocked(t, now).Seconds())
	}
	b.starved.Set(float64(starvedCount))
}

// Starvation reports the longest any lease has currently been starved
// and how many are, for the health scorer. Always zero on an
// uninstrumented broker (tracking is disabled there).
func (b *Broker) Starvation() (worst time.Duration, count int) {
	if b.reg == nil {
		return 0, 0
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.tenants {
		for l := range t.leases {
			if l.starvedSince.IsZero() {
				continue
			}
			count++
			if d := now.Sub(l.starvedSince); d > worst {
				worst = d
			}
		}
	}
	return worst, count
}

// Lease is one experiment's view of the shared pool. It implements
// cluster.SlotPool, so cluster.Config.Slots plugs it straight in.
type Lease struct {
	b      *Broker
	t      *tenant
	total  int // share hint latched at Join (Info.TotalSlots)
	paused bool
	closed bool
	held   map[cluster.SlotID]struct{}
	// starvedSince is non-zero while the lease is below its allowance
	// with demand the pool is not meeting (a reserve failed). Tracked
	// only when the broker is instrumented.
	starvedSince time.Time
}

// ReserveIdleMachine implements cluster.SlotPool under the fair-share
// rule: within allowance always (pool permitting); beyond it only when
// the idle surplus exceeds what under-share leases are owed.
func (l *Lease) ReserveIdleMachine() (cluster.SlotID, bool) {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	if l.closed || l.paused {
		return "", false
	}
	underShare := len(l.held) < l.b.allowanceLocked(l)
	if !underShare {
		if l.b.pool.IdleCount()-l.b.deficitLocked(l) < 1 {
			return "", false
		}
	}
	slot, ok := l.b.pool.ReserveIdleMachine()
	if !ok {
		// Failing while under allowance is starvation: entitled demand
		// the pool did not meet. Failing a borrow attempt is not.
		if underShare && l.b.reg != nil && l.starvedSince.IsZero() {
			l.starvedSince = l.b.now() //hdlint:ignore locksafe now is a monotonic clock read (time.Now or a test stub); it cannot block
		}
		return "", false
	}
	l.held[slot] = struct{}{}
	l.starvedSince = time.Time{}
	return slot, true
}

// ReleaseMachine implements cluster.SlotPool: the slot returns to the
// shared pool and starved experiments are nudged to claim it.
func (l *Lease) ReleaseMachine(slot cluster.SlotID) error {
	l.b.mu.Lock()
	if _, ok := l.held[slot]; !ok {
		l.b.mu.Unlock()
		l.b.mismatch.Add(1)
		return fmt.Errorf("serve: tenant %s releasing slot %s it does not hold", l.t.name, slot)
	}
	delete(l.held, slot)
	err := l.b.pool.ReleaseMachine(slot)
	wake := l.b.wake
	l.b.mu.Unlock()
	if wake != nil {
		wake()
	}
	return err
}

// MarkOffline implements cluster.SlotPool. Quarantine state lives on
// the shared pool (its transitions are idempotent, so every tenant
// relaying the same agent-down broadcast is safe).
func (l *Lease) MarkOffline(slots []cluster.SlotID) { l.b.pool.MarkOffline(slots) }

// MarkOnline implements cluster.SlotPool.
func (l *Lease) MarkOnline(slots []cluster.SlotID) { l.b.pool.MarkOnline(slots) }

// IdleCount implements cluster.SlotPool: how many slots this lease
// could reserve right now — remaining allowance, or the borrowable
// surplus, whichever is larger, capped by the pool's real idle count.
func (l *Lease) IdleCount() int {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	if l.closed || l.paused {
		return 0
	}
	idle := l.b.pool.IdleCount()
	n := l.b.allowanceLocked(l) - len(l.held)
	if borrow := idle - l.b.deficitLocked(l); borrow > n {
		n = borrow
	}
	if n > idle {
		n = idle
	}
	if n < 0 {
		n = 0
	}
	return n
}

// BusyCount implements cluster.SlotPool: slots this lease holds.
func (l *Lease) BusyCount() int {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	return len(l.held)
}

// OfflineCount implements cluster.SlotPool. Quarantine is pool-global
// (an offline agent is offline for everyone), so per-lease attribution
// would multiply-count it; report the pool's view.
func (l *Lease) OfflineCount() int { return l.b.pool.OfflineCount() }

// Total implements cluster.SlotPool: the share hint latched at Join,
// never less than 1. Policies read it (via Info.TotalSlots) to size
// their exploitation/exploration split to the tenant's slice rather
// than the whole machine room.
func (l *Lease) Total() int { return l.total }

// Held reports the slots currently reserved through this lease.
func (l *Lease) Held() int {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	return len(l.held)
}

// SetPaused gates reservations: a paused lease reserves nothing and
// reports zero idle capacity, and its owed allowance no longer blocks
// other tenants from borrowing. Held slots are unaffected (the policy
// wrapper suspends their jobs, which releases them).
func (l *Lease) SetPaused(p bool) {
	l.b.mu.Lock()
	l.paused = p
	if p {
		l.starvedSince = time.Time{} // a paused lease has no demand
	}
	l.b.mu.Unlock()
}

// Close retires the lease: any slot the experiment failed to release
// (crash, drain timeout) is force-released so shared capacity cannot
// leak, and the tenant's share is recomputed without it.
func (l *Lease) Close() {
	l.b.mu.Lock()
	if l.closed {
		l.b.mu.Unlock()
		return
	}
	l.closed = true
	l.starvedSince = time.Time{}
	for slot := range l.held {
		delete(l.held, slot)
		_ = l.b.pool.ReleaseMachine(slot)
	}
	delete(l.t.leases, l)
	wake := l.b.wake
	l.b.mu.Unlock()
	if wake != nil {
		wake()
	}
}

var _ cluster.SlotPool = (*Lease)(nil)
