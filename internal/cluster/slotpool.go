package cluster

import "github.com/hyperdrive-ml/hyperdrive/internal/sched"

// SlotPool is the slot-accounting surface an Experiment schedules
// against. The single-experiment runners use a ResourceManager built
// over the executor's own slots; an embedding service (hyperdrived)
// instead injects a lease carved out of one shared pool, so many
// experiments can divide the same agent fleet without seeing each
// other's bookkeeping.
//
// Implementations must preserve the occupancy invariant the sharded
// manager pins: Idle+Busy+Offline == Total at every observable moment,
// with quarantined-while-busy slots counted busy until released.
type SlotPool interface {
	// ReserveIdleMachine takes one idle slot, marking it busy.
	ReserveIdleMachine() (SlotID, bool)
	// ReleaseMachine returns a busy slot to the pool (or to quarantine,
	// if it went offline while running).
	ReleaseMachine(SlotID) error
	// MarkOffline quarantines slots whose agent was declared dead.
	MarkOffline([]SlotID)
	// MarkOnline restores quarantined slots after a reconnect.
	MarkOnline([]SlotID)
	IdleCount() int
	BusyCount() int
	OfflineCount() int
	Total() int
}

var _ SlotPool = (*ResourceManager)(nil)

// JobStopper is an optional Executor capability: asynchronously stop
// one running job, identified by its slot binding. The experiment's
// shutdown drain uses it so a cancelled tenant's jobs stop burning
// shared slots instead of running to their next boundary unattended.
// The stop is a request, not a barrier — completion arrives as the
// job's ordinary EvExited event.
type JobStopper interface {
	StopJob(job sched.JobID, slot SlotID) error
}
