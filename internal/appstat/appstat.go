// Package appstat implements the AppStat database of the HyperDrive
// architecture (paper §4.2, component ③): the store for model-generated
// application statistics (metric history, epoch durations) and for the
// model snapshots that make suspend/resume work across machines. It is
// shared state between the Scheduling Algorithm Policy, the
// Hyperparameter Generator, and the training jobs.
package appstat

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// Stat is one recorded application statistic.
type Stat struct {
	Epoch    int
	Metric   float64
	Duration time.Duration
	At       time.Time
}

// DB is the application-statistics database. The zero value is not
// usable; construct with NewDB. Safe for concurrent use.
type DB struct {
	mu        sync.RWMutex
	stats     map[sched.JobID][]Stat
	snapshots map[sched.JobID]Snapshot
	best      map[sched.JobID]float64
	gBest     float64
	gBestJob  sched.JobID
	hasBest   bool
}

// Snapshot is a stored model snapshot for suspend/resume.
type Snapshot struct {
	Job   sched.JobID
	Epoch int
	Data  []byte
	At    time.Time
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		stats:     make(map[sched.JobID][]Stat),
		snapshots: make(map[sched.JobID]Snapshot),
		best:      make(map[sched.JobID]float64),
	}
}

// Report records one statistic sample. Out-of-order epochs are
// accepted and kept sorted; duplicate epochs overwrite (a resumed job
// may re-report its resume-point epoch).
func (db *DB) Report(job sched.JobID, s Stat) {
	db.mu.Lock()
	defer db.mu.Unlock()
	hist := db.stats[job]
	idx := sort.Search(len(hist), func(i int) bool { return hist[i].Epoch >= s.Epoch })
	switch {
	case idx < len(hist) && hist[idx].Epoch == s.Epoch:
		hist[idx] = s
	case idx == len(hist):
		hist = append(hist, s)
	default:
		hist = append(hist, Stat{})
		copy(hist[idx+1:], hist[idx:])
		hist[idx] = s
	}
	db.stats[job] = hist

	if cur, ok := db.best[job]; !ok || s.Metric > cur {
		db.best[job] = s.Metric
	}
	if !db.hasBest || s.Metric > db.gBest {
		db.gBest = s.Metric
		db.gBestJob = job
		db.hasBest = true
	}
}

// History returns the job's metric history ordered by epoch.
func (db *DB) History(job sched.JobID) []float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	hist := db.stats[job]
	out := make([]float64, len(hist))
	for i, s := range hist {
		out[i] = s.Metric
	}
	return out
}

// Stats returns a copy of the job's full stat records.
func (db *DB) Stats(job sched.JobID) []Stat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]Stat(nil), db.stats[job]...)
}

// LastEpoch returns the job's highest reported epoch (0 when none).
func (db *DB) LastEpoch(job sched.JobID) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	hist := db.stats[job]
	if len(hist) == 0 {
		return 0
	}
	return hist[len(hist)-1].Epoch
}

// AvgEpochDuration returns the measured average epoch duration
// (Epoch_i in §3.1.1) and false when no duration has been recorded.
func (db *DB) AvgEpochDuration(job sched.JobID) (time.Duration, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sum time.Duration
	n := 0
	for _, s := range db.stats[job] {
		if s.Duration > 0 {
			sum += s.Duration
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / time.Duration(n), true
}

// Best returns the job's best metric so far.
func (db *DB) Best(job sched.JobID) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.best[job]
	return v, ok
}

// GlobalBest returns the best metric across all jobs and which job
// produced it.
func (db *DB) GlobalBest() (float64, sched.JobID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.hasBest {
		return math.Inf(-1), "", false
	}
	return db.gBest, db.gBestJob, true
}

// PutSnapshot stores (replacing) the job's model snapshot.
func (db *DB) PutSnapshot(s Snapshot) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.snapshots[s.Job] = s
}

// GetSnapshot retrieves the job's latest snapshot.
func (db *DB) GetSnapshot(job sched.JobID) (Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.snapshots[job]
	if !ok {
		return Snapshot{}, fmt.Errorf("appstat: no snapshot for job %s", job)
	}
	return s, nil
}

// DeleteJob drops all state for a job (after termination, to bound
// memory in long sweeps).
func (db *DB) DeleteJob(job sched.JobID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.stats, job)
	delete(db.snapshots, job)
	delete(db.best, job)
}

// Jobs lists all jobs with recorded stats, sorted.
func (db *DB) Jobs() []sched.JobID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]sched.JobID, 0, len(db.stats))
	for id := range db.stats {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
