package serve

import (
	"fmt"
	"net/http"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

// latencyBuckets spans the API's range: sub-millisecond mux hits up to
// multi-second long-polls on /events.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// statusRecorder captures the response status code so the middleware
// can count it by class after the handler returns.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps one API route with the server's HTTP telemetry: a
// per-route latency histogram, the shared in-flight gauge, and
// status-class counters. Handles are resolved once at registration;
// with fleet observability disabled (nil Options.Obs) the handler is
// returned untouched, so the disabled path adds zero work per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	if s.reg == nil {
		return h
	}
	lat := s.reg.Histogram(obs.ServeHTTPRequestSeconds(route), latencyBuckets...)
	inflight := s.reg.Gauge(obs.ServeHTTPInFlight)
	var classes [6]*obs.Counter
	for c := 1; c <= 5; c++ {
		classes[c] = s.reg.Counter(obs.ServeHTTPResponsesTotal(fmt.Sprintf("%dxx", c)))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Add(1)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		inflight.Add(-1)
		lat.Observe(time.Since(start).Seconds())
		if c := sr.status / 100; c >= 1 && c <= 5 {
			classes[c].Inc()
		}
	})
}
