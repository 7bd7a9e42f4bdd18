package cluster

import (
	"fmt"
	"sync"
)

// slotState is one slot's position in the pool state machine. A slot is
// always in exactly one state; the occupancy counts mirror the
// partition {idle, busy, offline} with busy-while-quarantined slots
// counted as busy until their binding is released, so
// IdleCount+BusyCount+OfflineCount == Total() at every instant.
type slotState uint8

const (
	slotIdle slotState = iota
	slotBusy
	// slotOffline is a quarantined slot with no job binding: invisible
	// to ReserveIdleMachine until MarkOnline.
	slotOffline
	// slotBusyOffline is a quarantined slot still carrying its job
	// binding — the job-loss events have not released it yet. It counts
	// as busy (the binding is real capacity in use) and moves to
	// slotOffline at release.
	slotBusyOffline
)

// ResourceManager tracks allocated and idle slots — the paper's RM
// component with its two-call API (§4.2):
//
//	reserveIdleMachine() -> machineId
//	releaseMachine(machineId)
//
// Every operation is O(1) in the pool size: idle slots sit on an
// intrusive doubly-linked FIFO free list, so reserve pops its head,
// release appends at its tail (a released slot waits behind everything
// idle), and quarantine unlinks a slot in place. Slots belonging to an
// unreachable agent are quarantined (offline): neither idle nor busy,
// invisible to ReserveIdleMachine until MarkOnline restores them.
//
// One mutex guards the pool. Its mutating callers are already
// serialised — an experiment touches its private pool only from its
// event loop, and hyperdrived's leases reserve and release under the
// broker's mutex — so the lock sees little contention.
type ResourceManager struct {
	slots []SlotID         // immutable after construction
	index map[SlotID]int32 // immutable: slot -> index

	mu    sync.Mutex
	state []slotState
	// Free-list links over slot indices; -1 terminates.
	next, prev          []int32
	head, tail          int32
	idle, busy, offline int
}

// NewResourceManager builds an RM over the given slots, all idle.
func NewResourceManager(slots []SlotID) *ResourceManager {
	n := len(slots)
	rm := &ResourceManager{
		slots: append([]SlotID(nil), slots...),
		index: make(map[SlotID]int32, n),
		state: make([]slotState, n),
		next:  make([]int32, n),
		prev:  make([]int32, n),
		head:  -1,
		tail:  -1,
		idle:  n,
	}
	for i, s := range rm.slots {
		rm.index[s] = int32(i)
		rm.pushBack(int32(i))
	}
	return rm
}

// Counts returns one consistent occupancy snapshot: slots idle, slots
// carrying a live job binding (including quarantined-but-busy ones),
// and quarantined slots with no binding. The three always sum to
// Total().
func (rm *ResourceManager) Counts() (idle, busy, offline int) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.idle, rm.busy, rm.offline
}

// ReserveIdleMachine claims the longest-idle slot.
func (rm *ResourceManager) ReserveIdleMachine() (SlotID, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	i := rm.head
	if i < 0 {
		return "", false
	}
	rm.remove(i)
	rm.state[i] = slotBusy
	rm.idle--
	rm.busy++
	return rm.slots[i], true
}

// ReleaseMachine returns a slot to the idle pool. Releasing a
// quarantined slot is a no-op success: the job-loss path frees its
// binding, but the slot stays offline until MarkOnline.
func (rm *ResourceManager) ReleaseMachine(s SlotID) error {
	i, ok := rm.index[s]
	if !ok {
		return fmt.Errorf("cluster: release of unknown slot %s", s)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	switch rm.state[i] {
	case slotBusy:
		rm.state[i] = slotIdle
		rm.pushBack(i)
		rm.busy--
		rm.idle++
	case slotBusyOffline:
		rm.state[i] = slotOffline
		rm.busy--
		rm.offline++
	case slotOffline:
		// Binding already gone; stay quarantined.
	default: // slotIdle
		return fmt.Errorf("cluster: release of non-busy slot %s", s)
	}
	return nil
}

// MarkOffline quarantines slots: idle ones leave the free list, busy
// ones keep their binding (the job-loss events will release them into
// quarantine rather than back to idle). Unknown slots are ignored —
// quarantining must never grow the pool.
func (rm *ResourceManager) MarkOffline(slots []SlotID) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, s := range slots {
		i, ok := rm.index[s]
		if !ok {
			continue
		}
		switch rm.state[i] {
		case slotIdle:
			rm.remove(i)
			rm.state[i] = slotOffline
			rm.idle--
			rm.offline++
		case slotBusy:
			// Still counts as busy: the binding is live until released.
			rm.state[i] = slotBusyOffline
		default: // already quarantined
		}
	}
}

// MarkOnline restores quarantined slots to the idle pool. Slots still
// carrying a busy binding (release hasn't happened yet) stay busy.
func (rm *ResourceManager) MarkOnline(slots []SlotID) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, s := range slots {
		i, ok := rm.index[s]
		if !ok {
			continue
		}
		switch rm.state[i] {
		case slotOffline:
			rm.state[i] = slotIdle
			rm.pushBack(i)
			rm.offline--
			rm.idle++
		case slotBusyOffline:
			rm.state[i] = slotBusy
		default: // not quarantined
		}
	}
}

// IdleCount reports idle slots.
func (rm *ResourceManager) IdleCount() int {
	idle, _, _ := rm.Counts()
	return idle
}

// BusyCount reports slots with a live job binding, including
// quarantined slots whose loss events have not released them yet.
func (rm *ResourceManager) BusyCount() int {
	_, busy, _ := rm.Counts()
	return busy
}

// OfflineCount reports quarantined slots with no job binding. A busy
// slot under quarantine counts as busy until its release, so
// IdleCount+BusyCount+OfflineCount always equals Total().
func (rm *ResourceManager) OfflineCount() int {
	_, _, off := rm.Counts()
	return off
}

// Total reports the pool size: every slot, whatever its state.
func (rm *ResourceManager) Total() int { return len(rm.slots) }

// --- intrusive free list (callers hold rm.mu) -------------------------

// pushBack appends a slot index at the free-list tail.
func (rm *ResourceManager) pushBack(i int32) {
	rm.next[i] = -1
	rm.prev[i] = rm.tail
	if rm.tail >= 0 {
		rm.next[rm.tail] = i
	} else {
		rm.head = i
	}
	rm.tail = i
}

// remove unlinks a slot index from anywhere in the free list.
func (rm *ResourceManager) remove(i int32) {
	if rm.prev[i] >= 0 {
		rm.next[rm.prev[i]] = rm.next[i]
	} else {
		rm.head = rm.next[i]
	}
	if rm.next[i] >= 0 {
		rm.prev[rm.next[i]] = rm.prev[i]
	} else {
		rm.tail = rm.prev[i]
	}
	rm.next[i], rm.prev[i] = -1, -1
}
