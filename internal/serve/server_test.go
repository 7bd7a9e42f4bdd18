package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// bootServer starts an in-process server over a worker-pool executor.
// reg may be nil (fleet observability disabled).
func bootServer(t *testing.T, slots, maxExps int, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	return bootServerAt(t, 200000, slots, maxExps, reg)
}

// bootServerAt is bootServer with the clock running speedup times
// faster than wall time.
func bootServerAt(t *testing.T, speedup float64, slots, maxExps int, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	clk := clock.NewScaled(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), speedup)
	events := make(chan cluster.Event, 4096)
	wreg := workload.NewRegistry()
	capturer, err := checkpoint.NewCapturer(checkpoint.Framework, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.NewWorkerPool(slots, wreg, clk, capturer, events)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Options{
		Executor:       pool,
		Events:         events,
		Clock:          clk,
		Registry:       wreg,
		MaxExperiments: maxExps,
		Rate:           100000,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		pool.Close()
	})
	return srv, hs
}

func submitExp(t *testing.T, hs *httptest.Server, body string, header map[string]string) string {
	t.Helper()
	id, _, err := trySubmit(hs, body, header)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// trySubmit posts one experiment and returns its ID, or the HTTP status
// and an error when the server did not create it. Safe to call off the
// test goroutine.
func trySubmit(hs *httptest.Server, body string, header map[string]string) (string, int, error) {
	req, err := http.NewRequest("POST", hs.URL+"/v1/experiments", strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return "", resp.StatusCode, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", resp.StatusCode, err
	}
	return out.ID, resp.StatusCode, nil
}

func getBody(t *testing.T, hs *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// Satellite: the /metrics rollup must be safe (and race-clean) against
// experiments being created and canceled concurrently — live
// registries are snapshotted under the server lock, finished ones are
// never rolled up.
func TestMetricsRollupUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short mode")
	}
	reg := obs.NewRegistry()
	_, hs := bootServer(t, 8, 8, reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churner: submit short experiments and cancel half of them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, _, err := trySubmit(hs, fmt.Sprintf(`{"tenant":"t%d","maxJobs":2,"seed":%d,"maxDurationSec":7776000}`, i%3, i), nil)
			if err != nil {
				t.Errorf("churn submit %d: %v", i, err)
				return
			}
			if i%2 == 0 {
				resp, err := hs.Client().Post(hs.URL+"/v1/experiments/"+id+"/cancel", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
			// Let some finish naturally so teardown overlaps the scrapes.
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Scrapers: hammer the rollup and health endpoints meanwhile.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, body := getBody(t, hs, "/metrics"); code != 200 || !strings.Contains(body, "hyperdrive_serve_experiments_total") {
					t.Errorf("/metrics under churn: HTTP %d", code)
					return
				}
				if code, _ := getBody(t, hs, "/healthz"); code != 200 && code != 503 {
					t.Errorf("/healthz under churn: HTTP %d", code)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
}

// countingPool counts the slot reservations and releases that reach
// the shared pool through the broker's leases.
type countingPool struct {
	cluster.SlotPool
	calls atomic.Int64
}

func (c *countingPool) ReserveIdleMachine() (cluster.SlotID, bool) {
	c.calls.Add(1)
	return c.SlotPool.ReserveIdleMachine()
}

func (c *countingPool) ReleaseMachine(slot cluster.SlotID) error {
	c.calls.Add(1)
	return c.SlotPool.ReleaseMachine(slot)
}

// An experiment that has started every configuration, with slots
// left idle, must not keep reserving and releasing them: each release
// wakes every hosted experiment, whose allocation would reserve again.
func TestIdleSlotsDoNotSpinLease(t *testing.T) {
	srv, hs := bootServerAt(t, 1000, 4, 4, nil)
	cp := &countingPool{SlotPool: srv.broker.pool}
	srv.broker.mu.Lock()
	srv.broker.pool = cp
	srv.broker.mu.Unlock()

	submitExp(t, hs, `{"tenant":"a","policy":"default","maxJobs":2,"seed":1,"maxDurationSec":7776000}`, nil)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Pool().BusyCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("experiment never started both configurations (busy %d)", srv.Pool().BusyCount())
		}
		time.Sleep(time.Millisecond)
	}
	before := cp.calls.Load()
	time.Sleep(100 * time.Millisecond)
	// Both jobs train for minutes of experiment time (seconds of wall
	// time), so no slot legitimately changes hands in the window.
	if n := cp.calls.Load() - before; n > 4 {
		t.Fatalf("%d lease reserve/release calls in 100ms with every configuration started", n)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	srv, hs := bootServer(t, 4, 2, reg)

	code, body := getBody(t, hs, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	var rep HealthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if rep.Status != healthOK {
		t.Fatalf("idle server health = %q, want ok (%+v)", rep.Status, rep)
	}
	names := map[string]bool{}
	for _, c := range rep.Checks {
		names[c.Name] = true
	}
	for _, want := range []string{"slots", "broker_starvation", "event_drops", "admission"} {
		if !names[want] {
			t.Errorf("healthz missing check %q", want)
		}
	}

	if code, _ := getBody(t, hs, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz: HTTP %d", code)
	}

	// A closed server is no longer ready.
	srv.Close()
	if code, _ := getBody(t, hs, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close: HTTP %d, want 503", code)
	}
}

// An inbound X-Trace-Id must reach the experiment's tracer: the
// api_submit span joins the caller's trace and the job decision spans
// parent under it, end to end.
func TestSubmitTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("trace e2e skipped in -short mode")
	}
	reg := obs.NewRegistry()
	_, hs := bootServer(t, 4, 2, reg)

	const inbound = "0mytrace00000001"
	id := submitExp(t, hs, `{"tenant":"alice","maxJobs":3,"seed":5,"maxDurationSec":7776000}`,
		map[string]string{"X-Trace-Id": inbound})

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("experiment did not finish")
		}
		_, body := getBody(t, hs, "/v1/experiments/"+id)
		var st ExperimentStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == stateDone {
			break
		}
		if st.State == stateFailed || st.State == stateCanceled {
			t.Fatalf("experiment ended %q: %s", st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, body := getBody(t, hs, "/v1/experiments/"+id+"/obs/spans")
	var views []obs.View
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatalf("spans: %v", err)
	}
	var submitSeen, decisionSeen bool
	for _, v := range views {
		if v.TraceID != inbound {
			continue
		}
		if v.Name == "api_submit" {
			submitSeen = true
		} else {
			decisionSeen = true
		}
	}
	if !submitSeen {
		t.Error("api_submit span did not join the inbound trace")
	}
	if !decisionSeen {
		t.Error("no scheduler span joined the inbound trace: propagation broken")
	}
}

// The middleware must count every API hit; with Obs nil the routes are
// served unwrapped and nothing panics.
func TestHTTPMiddleware(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := bootServer(t, 2, 2, reg)

	if code, _ := getBody(t, hs, "/v1/experiments"); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if code, _ := getBody(t, hs, "/v1/experiments/nope"); code != http.StatusNotFound {
		t.Fatalf("missing id: HTTP %d", code)
	}
	if got := reg.Counter(obs.ServeHTTPResponsesTotal("2xx")).Value(); got != 1 {
		t.Errorf("2xx counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.ServeHTTPResponsesTotal("4xx")).Value(); got != 1 {
		t.Errorf("4xx counter = %d, want 1", got)
	}
	if got := reg.Histogram(obs.ServeHTTPRequestSeconds("list"), latencyBuckets...).Count(); got != 1 {
		t.Errorf("list latency observations = %d, want 1", got)
	}
	if got := reg.Gauge(obs.ServeHTTPInFlight).Value(); got != 0 {
		t.Errorf("in-flight gauge = %v after requests drained, want 0", got)
	}

	// Disabled path: no registry, same API behavior.
	_, hsOff := bootServer(t, 2, 2, nil)
	if code, _ := getBody(t, hsOff, "/v1/experiments"); code != http.StatusOK {
		t.Fatalf("disabled list: HTTP %d", code)
	}
	if code, body := getBody(t, hsOff, "/metrics"); code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Fatalf("disabled /metrics: HTTP %d, body %q (want empty)", code, body)
	}
	if code, _ := getBody(t, hsOff, "/healthz"); code != http.StatusOK {
		t.Fatalf("disabled /healthz: HTTP %d", code)
	}
}
