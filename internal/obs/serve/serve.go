// Package serve embeds a live ops endpoint into the tbtso CLIs: the
// metrics registry in Prometheus text exposition format and as JSON,
// the flight recorder's violation report and dump, health, and
// net/http/pprof — so a long fuzz campaign or bench run is scrapeable
// and debuggable while it executes. Every command wires it through the
// shared flag helper in flags.go: all of them take -obs.listen and
// -obs.linger, and the two that run monitored machines, tbtso-sim and
// tbtso-fuzz, also take -obs.monitor (the residency monitor, with an
// optional =Δ bound) and -obs.flightdir. See docs/OBSERVABILITY.md for
// curl examples.
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
)

// Server is the embedded ops endpoint. Zero-value fields degrade
// gracefully: without a flight recorder /violations reports an empty
// list and /flightrecorder is 404, without a coverage source /coverage
// is 404.
type Server struct {
	reg    *obs.Registry
	flight *monitor.ShardedFlight
	mux    *http.ServeMux

	mu         sync.Mutex
	coverageFn func() *coverage.Snapshot

	ln   net.Listener
	http *http.Server
}

// New returns a server exposing reg. Attach a flight recorder and a
// coverage source with SetFlight/SetCoverage before Start.
func New(reg *obs.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/violations", s.handleViolations)
	s.mux.HandleFunc("/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("/coverage", s.handleCoverage)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// SetFlight attaches the flight recorder behind /flightrecorder,
// /violations and /healthz.
func (s *Server) SetFlight(f *monitor.ShardedFlight) { s.flight = f }

// SetCoverage attaches the /coverage source: a function returning the
// latest published campaign coverage snapshot (it must be safe for
// concurrent calls; returning nil means "nothing yet"). The snapshot
// is also rendered into the Prometheus scrape as tbtso_coverage_*.
func (s *Server) SetCoverage(fn func() *coverage.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.coverageFn = fn
}

func (s *Server) coverageSnapshot() *coverage.Snapshot {
	s.mu.Lock()
	fn := s.coverageFn
	s.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// violations returns the flight's retained violations (never nil, so
// /violations renders an empty list).
func (s *Server) violations() []monitor.Violation {
	violations := []monitor.Violation{}
	if s.flight != nil {
		violations = append(violations, s.flight.Violations()...)
	}
	return violations
}

// Handler returns the ops mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("host:port"; ":0" picks a free port) and
// serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.mux}
	go s.http.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Stop
	return ln.Addr().String(), nil
}

// Stop closes the listener and any in-flight connections.
func (s *Server) Stop() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.reg); err != nil {
		// Too late for a status code; the scrape will be truncated.
		return
	}
	if snap := s.coverageSnapshot(); snap != nil {
		WritePrometheusCoverage(w, snap) //nolint:errcheck // same scrape
	}
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w) //nolint:errcheck
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	n := len(s.violations())
	w.Header().Set("Content-Type", "application/json")
	if n > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "violations", "violations": n})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"status": "ok", "violations": 0})
}

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.EncodeDoc(w, map[string]any{"violations": s.violations()}) //nolint:errcheck
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	snap := s.coverageSnapshot()
	if snap == nil {
		http.Error(w, "no coverage source attached (campaign not started?)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.EncodeDoc(w, snap) //nolint:errcheck
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "no flight recorder attached (run with -obs.monitor)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.flight.Dump(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
