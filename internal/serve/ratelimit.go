package serve

import (
	"math"
	"sync"
	"time"
)

// rateLimiter is a per-tenant token bucket over wall time: each tenant
// accrues `rate` tokens per second up to `burst`, one API request costs
// one token, and an empty bucket yields the wait until the next token —
// the Retry-After the HTTP layer sends with its 429.
//
// Tenants come from a client-set header, so the bucket map is bounded:
// a bucket that has refilled to burst behaves exactly like an absent
// one, and allow drops such buckets whenever the map has doubled since
// the last sweep (amortised O(1) per new tenant).
type rateLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int // map size at which the next new tenant triggers a sweep
}

// minSweepAt keeps small maps from being swept on every new tenant.
const minSweepAt = 64

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	if rate <= 0 {
		rate = 50
	}
	if burst < 1 {
		burst = int(math.Ceil(rate))
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimiter{rate: rate, burst: float64(burst), now: now, buckets: make(map[string]*bucket)}
}

// allow spends one token from the tenant's bucket. When the bucket is
// empty it returns false and how long until a token is available.
func (rl *rateLimiter) allow(tenant string) (bool, time.Duration) {
	now := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[tenant]
	if b == nil {
		if len(rl.buckets) >= rl.sweepAt {
			rl.sweep(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(rl.burst, b.tokens+dt*rl.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
	return false, wait
}

// sweep deletes every bucket that has refilled to burst by now and
// schedules the next sweep for when the map has doubled. Callers hold
// rl.mu.
func (rl *rateLimiter) sweep(now time.Time) {
	for tenant, b := range rl.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.buckets, tenant)
		}
	}
	rl.sweepAt = max(2*len(rl.buckets), minSweepAt)
}
