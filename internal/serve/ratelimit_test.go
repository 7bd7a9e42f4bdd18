package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

// fakeNow is a settable clock for the rate limiter.
type fakeNow struct{ t time.Time }

func (f *fakeNow) now() time.Time          { return f.t }
func (f *fakeNow) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeNow() *fakeNow                 { return &fakeNow{t: time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)} }

func mustAllow(t *testing.T, rl *rateLimiter, tenant string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if ok, wait := rl.allow(tenant); !ok {
			t.Fatalf("%s request %d refused (wait %v), want allowed", tenant, i+1, wait)
		}
	}
}

func mustRefuse(t *testing.T, rl *rateLimiter, tenant string, want time.Duration) {
	t.Helper()
	ok, wait := rl.allow(tenant)
	if ok {
		t.Fatalf("%s request allowed, want refused", tenant)
	}
	if wait != want {
		t.Fatalf("%s refused with wait %v, want %v", tenant, wait, want)
	}
}

// TestRateLimiterTokenBucket pins the bucket's arithmetic: a full
// bucket admits burst requests at once, the next is refused with the
// wait until one token has accrued, refill is capped at burst, and
// tenants never share tokens.
func TestRateLimiterTokenBucket(t *testing.T) {
	clk := newFakeNow()
	rl := newRateLimiter(2, 3, clk.now) // 2 tokens/s, burst 3

	mustAllow(t, rl, "a", 3)
	mustRefuse(t, rl, "a", 500*time.Millisecond)

	// Half a token accrued: still refused, wait halves.
	clk.advance(250 * time.Millisecond)
	mustRefuse(t, rl, "a", 250*time.Millisecond)
	clk.advance(250 * time.Millisecond)
	mustAllow(t, rl, "a", 1)
	mustRefuse(t, rl, "a", 500*time.Millisecond)

	// Tenant b has its own full bucket while a is drained.
	mustAllow(t, rl, "b", 3)
	mustRefuse(t, rl, "b", 500*time.Millisecond)

	// A long idle period refills to burst, not beyond.
	clk.advance(time.Minute)
	mustAllow(t, rl, "a", 3)
	mustRefuse(t, rl, "a", 500*time.Millisecond)
}

// TestRateLimiterBucketsBounded rotates through 10k distinct tenants,
// one request each, spaced so every bucket has refilled before the
// next tenant arrives: the map must stay bounded, because a full
// bucket is indistinguishable from an absent one.
func TestRateLimiterBucketsBounded(t *testing.T) {
	clk := newFakeNow()
	rl := newRateLimiter(10, 5, clk.now) // one token refills in 100ms
	most := 0
	for i := 0; i < 10000; i++ {
		mustAllow(t, rl, fmt.Sprintf("t%d", i), 1)
		most = max(most, len(rl.buckets))
		clk.advance(200 * time.Millisecond)
	}
	// Only buckets created since the last sweep are held: at most the
	// sweep threshold for a map whose sweeps free everything.
	if most > 100 {
		t.Fatalf("bucket map reached %d entries for 10000 refilled tenants, want <= 100", most)
	}
}

// TestRateLimiterConcurrentTenants runs sweeps under contention (for
// -race): goroutines rotate through distinct tenants on the wall clock
// with a refill fast enough that sweeps find full buckets to delete.
func TestRateLimiterConcurrentTenants(t *testing.T) {
	rl := newRateLimiter(1e6, 1, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if ok, wait := rl.allow(fmt.Sprintf("g%d-t%d", g, i)); !ok {
					t.Errorf("new tenant refused (wait %v)", wait)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRateLimiterSweepKeepsDrainedBuckets checks that a sweep forgets
// only full buckets: a drained tenant stays refused while thousands
// of new tenants trigger sweeps around it.
func TestRateLimiterSweepKeepsDrainedBuckets(t *testing.T) {
	clk := newFakeNow()
	rl := newRateLimiter(1, 2, clk.now)
	mustAllow(t, rl, "hog", 2)
	for i := 0; i < 1000; i++ {
		mustAllow(t, rl, fmt.Sprintf("t%d", i), 1)
	}
	clk.advance(500 * time.Millisecond)
	for i := 1000; i < 2000; i++ {
		mustAllow(t, rl, fmt.Sprintf("t%d", i), 1)
	}
	mustRefuse(t, rl, "hog", 500*time.Millisecond)
}

// TestHandlerRateLimited drives the HTTP surface: once a tenant's
// bucket is empty its requests get 429 with a whole-second
// Retry-After of at least 1, while another tenant is still served.
func TestHandlerRateLimited(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := bootServer(t, 1, 4, reg)
	clk := newFakeNow()
	srv.limiter = newRateLimiter(0.25, 2, clk.now) // one token per 4 s
	h := srv.Handler()
	get := func(tenant string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/experiments", nil)
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	for i := 0; i < 2; i++ {
		if rec := get("a"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d, want 200", i+1, rec.Code)
		}
	}
	rec := get("a")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: HTTP %d, want 429", rec.Code)
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	if secs != 4 {
		t.Fatalf("Retry-After %d, want 4 (one token at 0.25/s)", secs)
	}
	if rec := get("b"); rec.Code != http.StatusOK {
		t.Fatalf("other tenant: HTTP %d, want 200", rec.Code)
	}
	if n := reg.Counter(obs.ServeRateLimitedTotal).Value(); n != 1 {
		t.Fatalf("rate-limited requests = %d, want 1", n)
	}
	clk.advance(4 * time.Second)
	if rec := get("a"); rec.Code != http.StatusOK {
		t.Fatalf("after refill: HTTP %d, want 200", rec.Code)
	}
}

// TestRefusedTenantsAddNoSeries refuses requests from a client that
// rotates X-Tenant and checks that /metrics does not grow with the
// number of tenants: refusals are counted only on the unlabelled
// counter.
func TestRefusedTenantsAddNoSeries(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := bootServer(t, 1, 4, reg)
	clk := newFakeNow()
	srv.limiter = newRateLimiter(1, 1, clk.now)
	h := srv.Handler()
	get := func(tenant, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	refuse := func(from, to int) {
		for i := from; i < to; i++ {
			tenant := fmt.Sprintf("rot%d", i)
			get(tenant, "/v1/experiments")
			if rec := get(tenant, "/v1/experiments"); rec.Code != http.StatusTooManyRequests {
				t.Fatalf("tenant %s second request: HTTP %d, want 429", tenant, rec.Code)
			}
		}
	}
	series := func(scraper string) int {
		rec := get(scraper, "/metrics")
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics: HTTP %d", rec.Code)
		}
		n := 0
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}

	refuse(0, 10)
	after10 := series("scraper-1")
	refuse(10, 1000)
	if after1000 := series("scraper-2"); after1000 != after10 {
		t.Fatalf("/metrics has %d series after 1000 refused tenants, %d after 10", after1000, after10)
	}
	if n := reg.Counter(obs.ServeRateLimitedTotal).Value(); n != 1000 {
		t.Fatalf("rate-limited requests = %d, want 1000", n)
	}
}
