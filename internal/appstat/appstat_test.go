package appstat

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

func TestReportAndHistory(t *testing.T) {
	db := NewDB()
	db.Report("a", Stat{Epoch: 1, Metric: 0.1, Duration: time.Minute})
	db.Report("a", Stat{Epoch: 2, Metric: 0.2, Duration: time.Minute})
	db.Report("a", Stat{Epoch: 3, Metric: 0.15, Duration: time.Minute})
	hist := db.History("a")
	want := []float64{0.1, 0.2, 0.15}
	if len(hist) != len(want) {
		t.Fatalf("history = %v", hist)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("history[%d] = %v, want %v", i, hist[i], want[i])
		}
	}
	if db.LastEpoch("a") != 3 {
		t.Fatalf("LastEpoch = %d", db.LastEpoch("a"))
	}
}

func TestReportOutOfOrderAndDuplicate(t *testing.T) {
	db := NewDB()
	db.Report("a", Stat{Epoch: 2, Metric: 0.2})
	db.Report("a", Stat{Epoch: 1, Metric: 0.1})
	db.Report("a", Stat{Epoch: 2, Metric: 0.25}) // resumed job re-reports
	hist := db.History("a")
	if len(hist) != 2 || hist[0] != 0.1 || hist[1] != 0.25 {
		t.Fatalf("history = %v, want [0.1 0.25]", hist)
	}
}

func TestBestTracking(t *testing.T) {
	db := NewDB()
	db.Report("a", Stat{Epoch: 1, Metric: 0.3})
	db.Report("a", Stat{Epoch: 2, Metric: 0.2})
	db.Report("b", Stat{Epoch: 1, Metric: 0.5})
	if v, ok := db.Best("a"); !ok || v != 0.3 {
		t.Fatalf("Best(a) = %v, %v", v, ok)
	}
	g, job, ok := db.GlobalBest()
	if !ok || g != 0.5 || job != "b" {
		t.Fatalf("GlobalBest = %v, %v, %v", g, job, ok)
	}
}

func TestGlobalBestEmpty(t *testing.T) {
	db := NewDB()
	if _, _, ok := db.GlobalBest(); ok {
		t.Fatal("GlobalBest on empty DB should be false")
	}
	if _, ok := db.Best("nope"); ok {
		t.Fatal("Best of unknown job should be false")
	}
}

func TestNegativeMetrics(t *testing.T) {
	// RL rewards are negative; zero-value assumptions must not leak.
	db := NewDB()
	db.Report("a", Stat{Epoch: 1, Metric: -300})
	db.Report("a", Stat{Epoch: 2, Metric: -150})
	if v, ok := db.Best("a"); !ok || v != -150 {
		t.Fatalf("Best = %v, %v, want -150", v, ok)
	}
	g, _, _ := db.GlobalBest()
	if g != -150 {
		t.Fatalf("GlobalBest = %v, want -150", g)
	}
}

func TestAvgEpochDuration(t *testing.T) {
	db := NewDB()
	if _, ok := db.AvgEpochDuration("a"); ok {
		t.Fatal("avg duration of unknown job should be false")
	}
	db.Report("a", Stat{Epoch: 1, Metric: 0.1, Duration: time.Minute})
	db.Report("a", Stat{Epoch: 2, Metric: 0.2, Duration: 3 * time.Minute})
	d, ok := db.AvgEpochDuration("a")
	if !ok || d != 2*time.Minute {
		t.Fatalf("avg duration = %v, %v", d, ok)
	}
}

func TestSnapshots(t *testing.T) {
	db := NewDB()
	if _, err := db.GetSnapshot("a"); err == nil {
		t.Fatal("GetSnapshot of missing job should fail")
	}
	db.PutSnapshot(Snapshot{Job: "a", Epoch: 10, Data: []byte("state")})
	s, err := db.GetSnapshot("a")
	if err != nil || s.Epoch != 10 || string(s.Data) != "state" {
		t.Fatalf("snapshot = %+v, %v", s, err)
	}
	db.PutSnapshot(Snapshot{Job: "a", Epoch: 20, Data: []byte("later")})
	s, _ = db.GetSnapshot("a")
	if s.Epoch != 20 {
		t.Fatalf("snapshot not replaced: %+v", s)
	}
}

func TestDeleteJob(t *testing.T) {
	db := NewDB()
	db.Report("a", Stat{Epoch: 1, Metric: 0.1})
	db.PutSnapshot(Snapshot{Job: "a", Epoch: 1})
	db.DeleteJob("a")
	if len(db.History("a")) != 0 {
		t.Fatal("history survived delete")
	}
	if _, err := db.GetSnapshot("a"); err == nil {
		t.Fatal("snapshot survived delete")
	}
}

func TestJobsSorted(t *testing.T) {
	db := NewDB()
	db.Report("b", Stat{Epoch: 1})
	db.Report("a", Stat{Epoch: 1})
	jobs := db.Jobs()
	if len(jobs) != 2 || jobs[0] != "a" || jobs[1] != "b" {
		t.Fatalf("Jobs = %v", jobs)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	db := NewDB()
	db.Report("a", Stat{Epoch: 1, Metric: 0.1})
	s := db.Stats("a")
	s[0].Metric = 99
	if db.History("a")[0] != 0.1 {
		t.Fatal("Stats returned shared storage")
	}
}

func TestConcurrentReports(t *testing.T) {
	db := NewDB()
	var wg sync.WaitGroup
	jobs := []sched.JobID{"a", "b", "c", "d"}
	for _, job := range jobs {
		for e := 1; e <= 50; e++ {
			wg.Add(1)
			go func(j sched.JobID, epoch int) {
				defer wg.Done()
				db.Report(j, Stat{Epoch: epoch, Metric: float64(epoch) / 100, Duration: time.Second})
			}(job, e)
		}
	}
	wg.Wait()
	for _, job := range jobs {
		hist := db.History(job)
		if len(hist) != 50 {
			t.Fatalf("job %s history len = %d, want 50", job, len(hist))
		}
		for i := 1; i < len(hist); i++ {
			if hist[i] <= hist[i-1] {
				t.Fatalf("job %s history not ordered at %d", job, i)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	db.Report("a", Stat{Epoch: 1, Metric: 0.1, Duration: time.Minute})
	db.Report("a", Stat{Epoch: 2, Metric: 0.2, Duration: time.Minute})
	db.Report("b", Stat{Epoch: 1, Metric: -150, Duration: 3 * time.Minute})
	db.PutSnapshot(Snapshot{Job: "a", Epoch: 2, Data: []byte("state")})

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs()) != 2 {
		t.Fatalf("jobs = %v", got.Jobs())
	}
	hist := got.History("a")
	if len(hist) != 2 || hist[1] != 0.2 {
		t.Fatalf("history = %v", hist)
	}
	d, ok := got.AvgEpochDuration("b")
	if !ok || d != 3*time.Minute {
		t.Fatalf("duration = %v, %v", d, ok)
	}
	gb, job, _ := got.GlobalBest()
	if gb != 0.2 || job != "a" {
		t.Fatalf("global best = %v, %v", gb, job)
	}
	snap, err := got.GetSnapshot("a")
	if err != nil || string(snap.Data) != "state" {
		t.Fatalf("snapshot = %+v, %v", snap, err)
	}
}

func TestLoadRejectsGarbageAndVersions(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("Load accepted truncated JSON")
	}
	if _, err := Load(strings.NewReader(`{"version":99,"stats":{}}`)); err == nil {
		t.Fatal("Load accepted unknown version")
	}
}
