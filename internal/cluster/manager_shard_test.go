package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
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

// slotPool is the mutator surface shared by the sharded pool and the
// single-lock reference, so tests drive both identically.
type slotPool interface {
	ReserveIdleMachine() (SlotID, bool)
	ReleaseMachine(SlotID) error
	MarkOffline([]SlotID)
	MarkOnline([]SlotID)
	IdleCount() int
	BusyCount() int
	OfflineCount() int
	Total() int
	Counts() (idle, busy, offline int)
}

var (
	_ slotPool = (*ResourceManager)(nil)
	_ slotPool = (*unshardedPool)(nil)
)

// unshardedPool is the original single-lock slot pool: one mutex, a
// free slice popped from the front, and map-backed busy / offline
// sets. It is the reference implementation the sharded pool's
// differential property tests compare against.
//
// Semantics match ResourceManager exactly, including the occupancy
// partition: a busy slot under quarantine counts as busy (not offline)
// until its binding is released, so IdleCount+BusyCount+OfflineCount
// equals Total().
type unshardedPool struct {
	mu      sync.Mutex
	free    []SlotID
	busy    map[SlotID]bool
	offline map[SlotID]bool
	total   int
}

// newUnshardedPool builds the single-lock pool, all idle.
func newUnshardedPool(slots []SlotID) *unshardedPool {
	rm := &unshardedPool{
		busy:    make(map[SlotID]bool, len(slots)),
		offline: make(map[SlotID]bool),
		total:   len(slots),
	}
	rm.free = append(rm.free, slots...)
	return rm
}

// ReserveIdleMachine claims an idle slot (FIFO).
func (rm *unshardedPool) ReserveIdleMachine() (SlotID, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if len(rm.free) == 0 {
		return "", false
	}
	s := rm.free[0]
	rm.free = rm.free[1:]
	rm.busy[s] = true
	return s, true
}

// ReleaseMachine returns a slot to the idle pool. Releasing a
// quarantined slot is a no-op success: the job-loss path frees its
// binding, but the slot stays offline until MarkOnline.
func (rm *unshardedPool) ReleaseMachine(s SlotID) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.offline[s] {
		delete(rm.busy, s)
		return nil
	}
	if !rm.busy[s] {
		return fmt.Errorf("cluster: release of non-busy slot %s", s)
	}
	delete(rm.busy, s)
	rm.free = append(rm.free, s)
	return nil
}

// MarkOffline quarantines slots; unknown slots are ignored.
func (rm *unshardedPool) MarkOffline(slots []SlotID) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, s := range slots {
		if rm.offline[s] || !rm.known(s) {
			continue
		}
		rm.offline[s] = true
		for i, f := range rm.free {
			if f == s {
				rm.free = append(rm.free[:i], rm.free[i+1:]...)
				break
			}
		}
	}
}

// MarkOnline restores quarantined slots to the idle pool. Slots still
// carrying a busy binding (release hasn't happened yet) stay busy.
func (rm *unshardedPool) MarkOnline(slots []SlotID) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, s := range slots {
		if !rm.offline[s] {
			continue
		}
		delete(rm.offline, s)
		if !rm.busy[s] {
			rm.free = append(rm.free, s)
		}
	}
}

// known reports whether a slot was part of the pool at construction.
// Callers hold rm.mu.
func (rm *unshardedPool) known(s SlotID) bool {
	if rm.busy[s] || rm.offline[s] {
		return true
	}
	for _, f := range rm.free {
		if f == s {
			return true
		}
	}
	return false
}

// IdleCount reports idle slots.
func (rm *unshardedPool) IdleCount() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.free)
}

// BusyCount reports slots with a live job binding, including
// quarantined-but-busy ones.
func (rm *unshardedPool) BusyCount() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.busy)
}

// OfflineCount reports quarantined slots with no job binding, matching
// ResourceManager's partition semantics.
func (rm *unshardedPool) OfflineCount() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	n := 0
	for s := range rm.offline {
		if !rm.busy[s] {
			n++
		}
	}
	return n
}

// Total reports the pool size.
func (rm *unshardedPool) Total() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.total
}

// Counts returns the occupancy partition in one lock acquisition.
func (rm *unshardedPool) Counts() (idle, busy, offline int) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	off := 0
	for s := range rm.offline {
		if !rm.busy[s] {
			off++
		}
	}
	return len(rm.free), len(rm.busy), off
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
// every observed instant (the counts are packed into one atomic word,
// so this holds even mid-transition). Run with -race.
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

// diffDriver applies one logical operation to both pool
// implementations, choosing targets by role (k-th held slot, fresh
// idle slot, full pool) so the two pools — whose reservation orders
// legitimately differ — stay observationally comparable: same
// ok/error results, same occupancy counts after every step.
type diffDriver struct {
	t        *testing.T
	slots    []SlotID
	a, b     slotPool
	heldA    []SlotID
	heldB    []SlotID
	exactIDs bool // single-shard mode: reserve order must match the seed exactly
}

func (d *diffDriver) step(rng *rand.Rand) bool {
	switch rng.Intn(8) {
	case 0, 1, 2: // reserve
		sa, oka := d.a.ReserveIdleMachine()
		sb, okb := d.b.ReserveIdleMachine()
		if oka != okb {
			d.t.Errorf("reserve ok mismatch: sharded %v, seed %v", oka, okb)
			return false
		}
		if oka {
			if d.exactIDs && sa != sb {
				d.t.Errorf("single-shard reserve order diverged: sharded %s, seed %s", sa, sb)
				return false
			}
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
			d.t.Errorf("release err mismatch: sharded %v, seed %v", ea, eb)
			return false
		}
		d.heldA = append(d.heldA[:k], d.heldA[k+1:]...)
		d.heldB = append(d.heldB[:k], d.heldB[k+1:]...)
	case 4: // release of a slot outside the pool must error in both
		ea := d.a.ReleaseMachine("no-such-slot")
		eb := d.b.ReleaseMachine("no-such-slot")
		if ea == nil || eb == nil {
			d.t.Errorf("bogus release: sharded err=%v, seed err=%v; want both non-nil", ea, eb)
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
		if oka != okb {
			d.t.Errorf("reserve-for-quarantine ok mismatch: %v vs %v", oka, okb)
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
		d.t.Errorf("counts diverged: sharded %d/%d/%d, seed %d/%d/%d", ia, ba, oa, ib, bb, ob)
		return false
	}
	if ia+ba+oa != d.a.Total() {
		d.t.Errorf("sharded partition %d+%d+%d != Total %d", ia, ba, oa, d.a.Total())
		return false
	}
	return true
}

// TestShardedPoolEquivalence property-checks the sharded pool against
// the single-lock seed implementation: under random role-based op
// sequences on a multi-shard pool, every observable (reserve success,
// release errors, occupancy counts) evolves identically.
func TestShardedPoolEquivalence(t *testing.T) {
	slots := benchSlots(24, 8) // 192 slots -> 3 shards
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := &diffDriver{
			t:     t,
			slots: slots,
			a:     NewResourceManager(slots),
			b:     newUnshardedPool(slots),
		}
		if d.a.(*ResourceManager).Shards() < 2 {
			t.Fatalf("want a multi-shard pool, got %d shard(s)", d.a.(*ResourceManager).Shards())
		}
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
		t.Fatal(err)
	}
}

// TestShardedPoolSingleShardFIFO property-checks the stronger
// single-shard guarantee: pools small enough for one shard preserve
// the seed's exact FIFO reservation order, slot identity for slot
// identity.
func TestShardedPoolSingleShardFIFO(t *testing.T) {
	slots := benchSlots(6, 4) // 24 slots -> 1 shard
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := &diffDriver{
			t:        t,
			slots:    slots,
			a:        NewResourceManager(slots),
			b:        newUnshardedPool(slots),
			exactIDs: true,
		}
		if d.a.(*ResourceManager).Shards() != 1 {
			t.Fatalf("want a single-shard pool, got %d shards", d.a.(*ResourceManager).Shards())
		}
		for i := 0; i < 200; i++ {
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
		t.Fatal(err)
	}
}

// TestShardedPoolGOMAXPROCSIndependentReplay replays one deterministic
// op schedule under different GOMAXPROCS values and requires identical
// transcripts: shard layout and probe order must derive from the pool
// size only, never from the host's CPU count, or replays would not be
// reproducible across machines.
func TestShardedPoolGOMAXPROCSIndependentReplay(t *testing.T) {
	transcript := func(procs int) []string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		slots := benchSlots(20, 8) // 160 slots -> multiple shards
		rm := NewResourceManager(slots)
		rng := rand.New(rand.NewSource(11))
		var out []string
		var held []SlotID
		for i := 0; i < 1500; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				s, ok := rm.ReserveIdleMachine()
				out = append(out, fmt.Sprintf("reserve %s %v", s, ok))
				if ok {
					held = append(held, s)
				}
			case 2:
				if len(held) > 0 {
					k := rng.Intn(len(held))
					err := rm.ReleaseMachine(held[k])
					out = append(out, fmt.Sprintf("release %s %v", held[k], err == nil))
					held = append(held[:k], held[k+1:]...)
				}
			case 3:
				a := rng.Intn(20)
				rm.MarkOffline(slots[a*8 : (a+1)*8])
				out = append(out, fmt.Sprintf("offline %d", a))
			case 4:
				a := rng.Intn(20)
				rm.MarkOnline(slots[a*8 : (a+1)*8])
				out = append(out, fmt.Sprintf("online %d", a))
			}
			idle, busy, off := rm.Counts()
			out = append(out, fmt.Sprintf("counts %d %d %d", idle, busy, off))
		}
		return out
	}

	one := transcript(1)
	many := transcript(4)
	if len(one) != len(many) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(one), len(many))
	}
	for i := range one {
		if one[i] != many[i] {
			t.Fatalf("transcripts diverge at step %d: GOMAXPROCS=1 %q, GOMAXPROCS=4 %q", i, one[i], many[i])
		}
	}
}
