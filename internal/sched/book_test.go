package sched

import (
	"reflect"
	"testing"

	"github.com/hyperdrive-ml/hyperdrive/internal/param"
)

// bookScript builds a book for one case: add creates running jobs,
// park suspends and requeues them in the given order.
type bookScript struct {
	t *testing.T
	b *Book[*Job]
}

func (s bookScript) add(ids ...JobID) {
	for _, id := range ids {
		j := NewJob(id, param.Config{"x": 1}, 1, 100)
		if err := s.b.Add(j); err != nil {
			s.t.Fatal(err)
		}
		if err := j.Start("m"); err != nil {
			s.t.Fatal(err)
		}
	}
}

func (s bookScript) park(ids ...JobID) {
	for _, id := range ids {
		j, _ := s.b.Get(id)
		if err := j.Suspend(); err != nil {
			s.t.Fatal(err)
		}
		s.b.Requeue(j)
	}
}

func (s bookScript) resume(id JobID) {
	j, _ := s.b.Get(id)
	if err := j.Start("m"); err != nil {
		s.t.Fatal(err)
	}
}

func TestBook(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s bookScript)
		fresh bool  // a fresh configuration remains
		want  JobID // job Next resumes; "" means start a fresh one
		ok    bool
		// Counts after setup (Next does not change them).
		suspended, active int
	}{
		{
			name:  "empty book, nothing fresh",
			setup: func(s bookScript) {},
		},
		{
			name:  "empty book starts a fresh configuration",
			setup: func(s bookScript) {},
			fresh: true, ok: true,
		},
		{
			name:  "FIFO by creation when queued in creation order",
			setup: func(s bookScript) { s.add("a", "b"); s.park("a", "b") },
			want:  "a", ok: true, suspended: 2, active: 2,
		},
		{
			name: "priority beats FIFO",
			setup: func(s bookScript) {
				s.add("a", "b")
				s.park("a", "b")
				s.b.Label("b", 0.9)
			},
			want: "b", ok: true, suspended: 2, active: 2,
		},
		{
			name: "labelled suspended job preempts a fresh one",
			setup: func(s bookScript) {
				s.add("a")
				s.park("a")
				s.b.Label("a", 0.5)
			},
			fresh: true, want: "a", ok: true, suspended: 1, active: 1,
		},
		{
			name:  "unlabelled suspended job waits behind fresh ones",
			setup: func(s bookScript) { s.add("a"); s.park("a") },
			fresh: true, ok: true, suspended: 1, active: 1,
		},
		{
			name: "equal priority falls back to requeue order",
			setup: func(s bookScript) {
				s.add("a", "b")
				s.park("b", "a")
				s.b.Label("a", 0.7)
				s.b.Label("b", 0.7)
			},
			want: "b", ok: true, suspended: 2, active: 2,
		},
		{
			name: "negative priority ranks below unlabelled",
			setup: func(s bookScript) {
				s.add("a", "b")
				s.park("a", "b")
				s.b.Label("a", -1)
			},
			want: "b", ok: true, suspended: 2, active: 2,
		},
		{
			name: "negative priority waits behind fresh ones",
			setup: func(s bookScript) {
				s.add("a")
				s.park("a")
				s.b.Label("a", -1)
			},
			fresh: true, ok: true, suspended: 1, active: 1,
		},
		{
			name: "negative priority still runs when nothing else can",
			setup: func(s bookScript) {
				s.add("a")
				s.park("a")
				s.b.Label("a", -1)
			},
			want: "a", ok: true, suspended: 1, active: 1,
		},
		{
			name: "a requeue goes to the back",
			setup: func(s bookScript) {
				s.add("a", "b", "c")
				s.park("a", "b")
				s.resume("a")
				s.park("c", "a")
			},
			want: "b", ok: true, suspended: 3, active: 3,
		},
		{
			name: "requeueing a queued job moves it without duplicating it",
			setup: func(s bookScript) {
				s.add("a", "b")
				s.park("a", "b")
				j, _ := s.b.Get("a")
				s.b.Requeue(j)
			},
			want: "b", ok: true, suspended: 2, active: 2,
		},
		{
			name: "resumed and terminated jobs leave the queue",
			setup: func(s bookScript) {
				s.add("a", "b", "c")
				s.park("a", "b")
				s.resume("a")
				j, _ := s.b.Get("b")
				if err := j.Terminate(); err != nil {
					s.t.Fatal(err)
				}
			},
			active: 2,
		},
		{
			name: "pending and finished jobs are not active",
			setup: func(s bookScript) {
				s.add("a", "b", "c")
				if err := s.b.Add(NewJob("p", nil, 0, 100)); err != nil {
					s.t.Fatal(err)
				}
				a, _ := s.b.Get("a")
				if err := a.Complete(); err != nil {
					s.t.Fatal(err)
				}
				s.park("b")
			},
			want: "b", ok: true, suspended: 1, active: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBook[*Job]()
			tc.setup(bookScript{t: t, b: b})
			if got := b.Suspended(); got != tc.suspended {
				t.Errorf("Suspended() = %d, want %d", got, tc.suspended)
			}
			if got := b.ActiveCount(); got != tc.active || len(b.Active()) != tc.active {
				t.Errorf("ActiveCount() = %d, len(Active()) = %d, want %d", got, len(b.Active()), tc.active)
			}
			j, ok := b.Next(tc.fresh)
			var got JobID
			if j != nil {
				got = j.ID
			}
			if got != tc.want || ok != tc.ok {
				t.Errorf("Next(%v) = %q, %v; want %q, %v", tc.fresh, got, ok, tc.want, tc.ok)
			}
			if n := b.Suspended(); n != tc.suspended {
				t.Errorf("Next changed Suspended() to %d, want %d", n, tc.suspended)
			}
		})
	}
}

func TestBookTable(t *testing.T) {
	b := NewBook[*Job]()
	s := bookScript{t: t, b: b}
	s.add("c", "a", "b")
	if err := b.Add(NewJob("a", nil, 0, 100)); err == nil {
		t.Fatal("duplicate job accepted")
	}
	var order []JobID
	for _, j := range b.Jobs() {
		order = append(order, j.ID)
	}
	if want := []JobID{"c", "a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("Jobs() order = %v, want creation order %v", order, want)
	}
	if got, want := b.Active(), []JobID{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Active() = %v, want sorted %v", got, want)
	}
	if _, ok := b.Get("zz"); ok {
		t.Fatal("Get found an unknown job")
	}
	b.Label("zz", 1) // unknown jobs are ignored
	b.Label("a", 0.25)
	if j, _ := b.Get("a"); j.Priority() != 0.25 {
		t.Fatalf("label not applied: priority %v", j.Priority())
	}
}
