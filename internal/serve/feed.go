package serve

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"
)

// feedCapacity bounds how many event records a hosted experiment
// retains for long-polling watchers; older records are evicted (the
// sequence numbers make the gap visible to clients).
const feedCapacity = 4096

// FeedRecord is one retained event-log line with its sequence number.
type FeedRecord struct {
	Seq   uint64          `json:"seq"`
	Event json.RawMessage `json:"event"`
}

// Feed is a hosted experiment's event stream: it is the io.Writer
// behind the experiment's EventLog (one JSON line per record) and a
// bounded, sequence-numbered ring that HTTP watchers long-poll.
type Feed struct {
	// onLine, when non-nil, observes every complete line as it lands
	// (the server hooks first-decision latency here). Called without
	// the feed lock.
	onLine func(line []byte)
	// onDrop, when non-nil, observes ring evictions (records pushed out
	// past feedCapacity before any watcher saw them). Set before the
	// feed's first Write; called without the feed lock.
	onDrop func(n int)

	mu      sync.Mutex
	recs    []FeedRecord
	next    uint64        // seq the next record gets, from 1 (first retained is next-len)
	changed chan struct{} // closed and renewed on every append/close
	closed  bool
	partial []byte // bytes of an incomplete trailing line
}

// NewFeed builds an empty feed. onLine (optional) sees every complete
// event line in append order. Records are numbered from 1, so the
// zero cursor (a watcher that has seen nothing) returns the first.
func NewFeed(onLine func(line []byte)) *Feed {
	return &Feed{onLine: onLine, changed: make(chan struct{}), next: 1}
}

// Write implements io.Writer for the EventLog flusher: input is a
// stream of newline-terminated JSON records, possibly split across
// calls; each complete line becomes one feed record.
func (f *Feed) Write(p []byte) (int, error) {
	n := len(p)
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			break
		}
		line := p[:i]
		p = p[i+1:]
		f.mu.Lock()
		if len(f.partial) > 0 {
			line = append(f.partial, line...)
			f.partial = nil
		}
		f.mu.Unlock()
		f.append(line)
	}
	if len(p) > 0 {
		f.mu.Lock()
		f.partial = append(f.partial, p...)
		f.mu.Unlock()
	}
	return n, nil
}

func (f *Feed) append(line []byte) {
	if len(line) == 0 {
		return
	}
	cp := append([]byte(nil), line...)
	if f.onLine != nil {
		f.onLine(cp)
	}
	f.mu.Lock()
	f.recs = append(f.recs, FeedRecord{Seq: f.next, Event: cp})
	f.next++
	var evicted int
	if len(f.recs) > feedCapacity {
		evicted = len(f.recs) - feedCapacity
		f.recs = f.recs[evicted:]
	}
	ch := f.changed
	f.changed = make(chan struct{})
	f.mu.Unlock()
	close(ch)
	if evicted > 0 && f.onDrop != nil {
		f.onDrop(evicted)
	}
}

// Close wakes every pending long-poll; subsequent polls return
// immediately with whatever is retained.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ch := f.changed
	f.mu.Unlock()
	close(ch)
}

// afterLocked returns retained records with Seq > after.
func (f *Feed) afterLocked(after uint64) []FeedRecord {
	for i, r := range f.recs {
		if r.Seq > after {
			return append([]FeedRecord(nil), f.recs[i:]...)
		}
	}
	return nil
}

// Poll returns records with sequence numbers greater than after,
// blocking up to wait for new ones when the caller is already caught
// up. A closed feed never blocks. The second result is the cursor to
// pass as `after` next time.
func (f *Feed) Poll(after uint64, wait time.Duration) ([]FeedRecord, uint64) {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		f.mu.Lock()
		recs := f.afterLocked(after)
		ch := f.changed
		closed := f.closed
		f.mu.Unlock()
		if n := len(recs); n > 0 {
			return recs, recs[n-1].Seq
		}
		if closed || wait <= 0 {
			return nil, after
		}
		select {
		case <-ch:
		case <-deadline.C:
			return nil, after
		}
	}
}
