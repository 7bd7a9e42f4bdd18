package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// benchSlots builds agents*per slot names in MultiExecutor order
// ("agentN#K"), the same shape the scheduler sees.
func benchSlots(agents, per int) []SlotID {
	out := make([]SlotID, 0, agents*per)
	for a := 0; a < agents; a++ {
		for k := 0; k < per; k++ {
			out = append(out, SlotID(fmt.Sprintf("agent%d#%d", a, k)))
		}
	}
	return out
}

// slotPool is the surface shared by ResourceManager and the reference
// model, so tests drive both identically.
type slotPool interface {
	ReserveIdleMachine() (SlotID, bool)
	ReleaseMachine(SlotID) error
	MarkOffline([]SlotID)
	MarkOnline([]SlotID)
	Total() int
	Counts() (idle, busy, offline int)
}

var (
	_ slotPool = (*ResourceManager)(nil)
	_ slotPool = (*slicePool)(nil)
)

// slicePool is the original slot pool: a free slice popped from the
// front and map-backed busy / offline sets, with an O(idle) scan to
// quarantine an idle slot. It is the reference model the
// ResourceManager's differential property tests compare against, and
// shares its partition: a busy slot under quarantine counts as busy
// (not offline) until its binding is released.
type slicePool struct {
	free    []SlotID
	busy    map[SlotID]bool
	offline map[SlotID]bool
	known   map[SlotID]bool
}

func newSlicePool(slots []SlotID) *slicePool {
	p := &slicePool{busy: map[SlotID]bool{}, offline: map[SlotID]bool{}, known: map[SlotID]bool{}}
	for _, s := range slots {
		p.known[s] = true
	}
	p.free = append(p.free, slots...)
	return p
}

func (p *slicePool) ReserveIdleMachine() (SlotID, bool) {
	if len(p.free) == 0 {
		return "", false
	}
	s := p.free[0]
	p.free = p.free[1:]
	p.busy[s] = true
	return s, true
}

func (p *slicePool) ReleaseMachine(s SlotID) error {
	if p.offline[s] {
		delete(p.busy, s)
		return nil
	}
	if !p.busy[s] {
		return fmt.Errorf("cluster: release of non-busy slot %s", s)
	}
	delete(p.busy, s)
	p.free = append(p.free, s)
	return nil
}

func (p *slicePool) MarkOffline(slots []SlotID) {
	for _, s := range slots {
		if p.offline[s] || !p.known[s] {
			continue
		}
		p.offline[s] = true
		for i, f := range p.free {
			if f == s {
				p.free = append(p.free[:i], p.free[i+1:]...)
				break
			}
		}
	}
}

func (p *slicePool) MarkOnline(slots []SlotID) {
	for _, s := range slots {
		if !p.offline[s] {
			continue
		}
		delete(p.offline, s)
		if !p.busy[s] {
			p.free = append(p.free, s)
		}
	}
}

func (p *slicePool) Total() int { return len(p.known) }

func (p *slicePool) Counts() (idle, busy, offline int) {
	for s := range p.offline {
		if !p.busy[s] {
			offline++
		}
	}
	return len(p.free), len(p.busy), offline
}

// TestResourceManagerPartitionInvariant is the regression test for the
// offline/busy double-count bug: quarantining a busy slot used to leave
// it counted under both BusyCount and OfflineCount, so the occupancy
// partition summed past Total(). A busy slot under quarantine must
// count as busy until its binding is released.
func TestResourceManagerPartitionInvariant(t *testing.T) {
	rm := NewResourceManager([]SlotID{"a#0", "a#1", "b#0"})
	s, ok := rm.ReserveIdleMachine()
	if !ok {
		t.Fatal("reserve failed on a fresh pool")
	}
	rm.MarkOffline([]SlotID{s})
	idle, busy, off := rm.IdleCount(), rm.BusyCount(), rm.OfflineCount()
	if idle+busy+off != rm.Total() {
		t.Fatalf("busy slot quarantined: idle %d + busy %d + offline %d = %d, want Total %d",
			idle, busy, off, idle+busy+off, rm.Total())
	}
	if busy != 1 {
		t.Fatalf("quarantined-but-busy slot left BusyCount: busy = %d, want 1", busy)
	}

	// MarkOnline before the release must hand the binding back as plain
	// busy, not mint a second idle copy of the slot.
	rm.MarkOnline([]SlotID{s})
	idle, busy, off = rm.Counts()
	if idle != 2 || busy != 1 || off != 0 {
		t.Fatalf("after online: idle=%d busy=%d offline=%d, want 2/1/0", idle, busy, off)
	}
	if err := rm.ReleaseMachine(s); err != nil {
		t.Fatalf("release after round trip: %v", err)
	}
	if idle, busy, off = rm.Counts(); idle != 3 || busy != 0 || off != 0 {
		t.Fatalf("after release: idle=%d busy=%d offline=%d, want 3/0/0 (no double-counted idle)", idle, busy, off)
	}
}

// TestResourceManagerInvariantRace hammers all four mutators from
// concurrent goroutines while a checker continuously asserts the
// occupancy partition: IdleCount+BusyCount+OfflineCount == Total() at
// every observed instant. Run with -race.
func TestResourceManagerInvariantRace(t *testing.T) {
	const agents, per = 32, 8
	slots := benchSlots(agents, per)
	rm := NewResourceManager(slots)

	iters := 3000
	if testing.Short() {
		iters = 600
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			var held []SlotID
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0, 1:
					if s, ok := rm.ReserveIdleMachine(); ok {
						held = append(held, s)
					}
				case 2:
					if len(held) > 0 {
						k := rng.Intn(len(held))
						if err := rm.ReleaseMachine(held[k]); err != nil {
							t.Errorf("release of held slot %s: %v", held[k], err)
							return
						}
						held[k] = held[len(held)-1]
						held = held[:len(held)-1]
					}
				case 3:
					a := rng.Intn(agents)
					rm.MarkOffline(slots[a*per : (a+1)*per])
				case 4:
					a := rng.Intn(agents)
					rm.MarkOnline(slots[a*per : (a+1)*per])
				}
			}
			for _, s := range held {
				if err := rm.ReleaseMachine(s); err != nil {
					t.Errorf("final release %s: %v", s, err)
				}
			}
		}(g)
	}

	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			idle, busy, off := rm.Counts()
			if idle+busy+off != rm.Total() {
				t.Errorf("partition drift under concurrency: %d+%d+%d != %d", idle, busy, off, rm.Total())
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	checker.Wait()

	rm.MarkOnline(slots)
	idle, busy, off := rm.Counts()
	if idle != rm.Total() || busy != 0 || off != 0 {
		t.Fatalf("after quiesce+restore: idle=%d busy=%d offline=%d, want %d/0/0", idle, busy, off, rm.Total())
	}
}

// diffDriver applies one logical operation to the pool and the
// reference model, choosing targets by role (k-th held slot, fresh idle
// slot, full pool): the two must agree on every reserved slot, every
// ok/error result, and the occupancy counts after every step.
type diffDriver struct {
	t            *testing.T
	slots        []SlotID
	a, b         slotPool
	heldA, heldB []SlotID
}

func (d *diffDriver) step(rng *rand.Rand) bool {
	switch rng.Intn(8) {
	case 0, 1, 2: // reserve
		sa, oka := d.a.ReserveIdleMachine()
		sb, okb := d.b.ReserveIdleMachine()
		if oka != okb || sa != sb {
			d.t.Errorf("reserve = %s, %v; reference %s, %v", sa, oka, sb, okb)
			return false
		}
		if oka {
			d.heldA = append(d.heldA, sa)
			d.heldB = append(d.heldB, sb)
		}
	case 3: // release the k-th held slot
		if len(d.heldA) == 0 {
			return true
		}
		k := rng.Intn(len(d.heldA))
		ea := d.a.ReleaseMachine(d.heldA[k])
		eb := d.b.ReleaseMachine(d.heldB[k])
		if (ea == nil) != (eb == nil) {
			d.t.Errorf("release err mismatch: pool %v, reference %v", ea, eb)
			return false
		}
		d.heldA = append(d.heldA[:k], d.heldA[k+1:]...)
		d.heldB = append(d.heldB[:k], d.heldB[k+1:]...)
	case 4: // release of a slot outside the pool must error in both
		ea := d.a.ReleaseMachine("no-such-slot")
		eb := d.b.ReleaseMachine("no-such-slot")
		if ea == nil || eb == nil {
			d.t.Errorf("bogus release: pool err=%v, reference err=%v; want both non-nil", ea, eb)
			return false
		}
	case 5: // quarantine the k-th held (busy) slot
		if len(d.heldA) == 0 {
			return true
		}
		k := rng.Intn(len(d.heldA))
		d.a.MarkOffline([]SlotID{d.heldA[k]})
		d.b.MarkOffline([]SlotID{d.heldB[k]})
	case 6: // quarantine one fresh idle slot (reserve→release→offline)
		sa, oka := d.a.ReserveIdleMachine()
		sb, okb := d.b.ReserveIdleMachine()
		if oka != okb || sa != sb {
			d.t.Errorf("reserve-for-quarantine = %s, %v; reference %s, %v", sa, oka, sb, okb)
			return false
		}
		if oka {
			if d.a.ReleaseMachine(sa) != nil || d.b.ReleaseMachine(sb) != nil {
				d.t.Error("release of just-reserved slot failed")
				return false
			}
			d.a.MarkOffline([]SlotID{sa})
			d.b.MarkOffline([]SlotID{sb})
		}
	case 7: // restore the whole pool
		d.a.MarkOnline(d.slots)
		d.b.MarkOnline(d.slots)
	}
	ia, ba, oa := d.a.Counts()
	ib, bb, ob := d.b.Counts()
	if ia != ib || ba != bb || oa != ob {
		d.t.Errorf("counts diverged: pool %d/%d/%d, reference %d/%d/%d", ia, ba, oa, ib, bb, ob)
		return false
	}
	if ia+ba+oa != d.a.Total() {
		d.t.Errorf("partition %d+%d+%d != Total %d", ia, ba, oa, d.a.Total())
		return false
	}
	return true
}

// TestResourceManagerEquivalence property-checks the pool against the
// reference model: under random role-based op sequences every
// observable — which slot a reserve returns, release errors, occupancy
// counts — evolves identically, at a small pool and at one past 64
// slots.
func TestResourceManagerEquivalence(t *testing.T) {
	for _, agents := range []int{6, 24} { // 24 and 192 slots
		slots := benchSlots(agents, 8)
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			d := &diffDriver{t: t, slots: slots, a: NewResourceManager(slots), b: newSlicePool(slots)}
			for i := 0; i < 300; i++ {
				if !d.step(rng) {
					return false
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 40}
		if testing.Short() {
			cfg.MaxCount = 8
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatalf("%d slots: %v", len(slots), err)
		}
	}
}

// TestResourceManagerFIFO pins the free list's order on a pool past 64
// slots: reservations come out in pool order, released and restored
// slots queue behind everything already idle, and a quarantined idle
// slot leaves the queue from wherever it sits.
func TestResourceManagerFIFO(t *testing.T) {
	slots := benchSlots(25, 4) // 100 slots
	rm := NewResourceManager(slots)
	reserve := func() SlotID {
		t.Helper()
		s, ok := rm.ReserveIdleMachine()
		if !ok {
			t.Fatal("reserve failed with idle slots left")
		}
		return s
	}
	for i := 0; i < 90; i++ {
		if s := reserve(); s != slots[i] {
			t.Fatalf("reserve %d = %s, want %s", i, s, slots[i])
		}
	}
	// Idle now: slots[90:]. Release three busy slots out of order and
	// quarantine one idle slot in the middle of the queue.
	for _, i := range []int{42, 7, 63} {
		if err := rm.ReleaseMachine(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	rm.MarkOffline([]SlotID{slots[95]})
	rm.MarkOnline([]SlotID{slots[95]})
	var want []SlotID
	want = append(want, slots[90:95]...)
	want = append(want, slots[96:]...)
	want = append(want, slots[42], slots[7], slots[63], slots[95])
	for i, w := range want {
		if s := reserve(); s != w {
			t.Fatalf("reserve %d after releases = %s, want %s", i, s, w)
		}
	}
	if s, ok := rm.ReserveIdleMachine(); ok {
		t.Fatalf("reserved %s from an exhausted pool", s)
	}
}
