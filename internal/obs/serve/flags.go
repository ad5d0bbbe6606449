package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"tbtso/internal/obs"
	"tbtso/internal/obs/monitor"
)

// Options is the shared -obs.* flag block the tbtso CLIs register, so
// monitoring and the ops endpoint work identically across them.
type Options struct {
	// Listen is the ops endpoint address ("" = no endpoint).
	Listen string
	// Monitors attaches the residency monitor to machine runs:
	// "residency" checks each run's own Δ, "residency=Δ" checks the
	// given bound ("" = none).
	Monitors string
	// Linger keeps the ops endpoint serving this long after the
	// command's work finishes, so external scrapers can collect the
	// final state.
	Linger time.Duration
	// FlightDir, when non-empty, receives a flight-recorder artifact
	// (<command>.flight.json) if any monitor tripped.
	FlightDir string
}

// Register installs every -obs.* flag on fs (pass the command's flag
// set): the endpoint flags plus -obs.monitor and -obs.flightdir, for
// commands that run monitored machines.
func (o *Options) Register(fs *flag.FlagSet) {
	o.RegisterEndpoint(fs)
	fs.StringVar(&o.Monitors, "obs.monitor", "", "attach the residency monitor to machine runs: residency (each run's own Δ) or residency=Δ")
	fs.StringVar(&o.FlightDir, "obs.flightdir", "", "write a flight-recorder artifact here when a monitor reports a violation")
}

// RegisterEndpoint installs only -obs.listen and -obs.linger, for
// commands that run no monitored machine: asking one of them for a
// monitor is then a usage error, not a silent "0 violations".
func (o *Options) RegisterEndpoint(fs *flag.FlagSet) {
	fs.StringVar(&o.Listen, "obs.listen", "", "serve the ops endpoint (/metrics, /metrics.json, /healthz, /violations, /flightrecorder, /coverage, /debug/pprof) on this address; :0 picks a port")
	fs.DurationVar(&o.Linger, "obs.linger", 0, "keep the ops endpoint serving this long after the run finishes")
}

// Session is a started observability session: the registry, the
// flight recorder (nil unless -obs.monitor or -obs.flightdir), and the
// running ops server (nil unless -obs.listen).
type Session struct {
	Registry *obs.Registry
	// Flight records the command's machine runs in seed-ordered groups,
	// each checked by a fresh residency monitor when one was requested.
	Flight *monitor.ShardedFlight
	// Addr is the ops endpoint's bound address ("" when not serving).
	Addr string

	srv       *Server
	linger    time.Duration
	flightDir string
	monitored bool // -obs.monitor was given
	dumped    bool // DumpFlight wrote the flight already
}

// Start builds the session from the parsed flags: it parses the
// monitor spec, builds the flight recorder, and starts the ops
// endpoint. reg may be nil (a fresh registry is created). A zero
// Options yields an inert session with no Flight.
func (o Options) Start(reg *obs.Registry) (*Session, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Session{Registry: reg, linger: o.Linger, flightDir: o.FlightDir, monitored: o.Monitors != ""}

	if o.Monitors != "" || o.FlightDir != "" {
		var factory func() *monitor.Residency
		if o.Monitors != "" {
			bound, err := ParseMonitors(o.Monitors)
			if err != nil {
				return nil, err
			}
			factory = func() *monitor.Residency { return monitor.NewResidency(reg, bound) }
		}
		s.Flight = monitor.NewShardedFlight(factory, monitor.DefaultFlightSeeds)
	}

	if o.Listen != "" {
		srv := New(reg)
		if s.Flight != nil {
			srv.SetFlight(s.Flight)
		}
		addr, err := srv.Start(o.Listen)
		if err != nil {
			return nil, err
		}
		s.srv, s.Addr = srv, addr
	}
	return s, nil
}

// ParseMonitors parses a -obs.monitor spec, "residency" or
// "residency=Δ", into the bound the residency monitor checks (0 =
// each run's own Δ).
func ParseMonitors(spec string) (bound uint64, err error) {
	name, boundStr, hasBound := strings.Cut(strings.TrimSpace(spec), "=")
	if name != "residency" {
		return 0, fmt.Errorf("serve: unknown monitor %q (valid: residency or residency=Δ)", spec)
	}
	if !hasBound {
		return 0, nil
	}
	if bound, err = strconv.ParseUint(boundStr, 10, 64); err != nil {
		return 0, fmt.Errorf("serve: monitor %q: bad bound %q (valid: residency or residency=Δ)", spec, boundStr)
	}
	return bound, nil
}

// Server returns the running ops server (nil unless -obs.listen), so
// commands can attach command-specific sources — a campaign's coverage
// provider — after Start.
func (s *Session) Server() *Server { return s.srv }

// DumpFlight writes the flight to FlightDir/<name>.flight.json now and
// returns the path ("" without a flight or a flight dir). FinishContext then
// skips its on-violation dump, which would only repeat this one.
func (s *Session) DumpFlight(name string) (string, error) {
	if s.Flight == nil || s.flightDir == "" {
		return "", nil
	}
	s.dumped = true
	return s.Flight.DumpToFile(s.flightDir, name)
}

// FinishContext ends the session: it reports the flight's violations
// to w, dumps the flight into FlightDir if any monitor tripped, honors
// the linger window, and stops the server. name labels the artifact
// file. It returns the number of violations (callers fold it into
// their exit code). The linger window is cancellable: a signal
// arriving while the endpoint lingers cuts the window short instead
// of pinning the process in an unkillable sleep, and the server still
// stops. When ctx is already cancelled — the run was interrupted — a
// monitored session additionally dumps an unconditional
// <name>.interrupt.flight.json post-mortem artifact, violations or
// not.
func (s *Session) FinishContext(ctx context.Context, w io.Writer, name string) int {
	var violations []monitor.Violation
	if s.Flight != nil {
		violations = s.Flight.Violations()
	}
	for _, v := range violations {
		fmt.Fprintf(w, "obs: VIOLATION %s\n", v)
	}
	if s.Flight != nil && s.flightDir != "" {
		if len(violations) > 0 && !s.dumped {
			if path, err := s.Flight.DumpToFile(s.flightDir, name); err != nil {
				fmt.Fprintf(w, "obs: flight dump: %v\n", err)
			} else {
				fmt.Fprintf(w, "obs: flight-recorder artifact: %s\n", path)
			}
		}
		if ctx.Err() != nil && s.monitored {
			if path, err := s.Flight.DumpToFile(s.flightDir, name+".interrupt"); err != nil {
				fmt.Fprintf(w, "obs: interrupt flight dump: %v\n", err)
			} else {
				fmt.Fprintf(w, "obs: interrupt flight-recorder artifact: %s\n", path)
			}
		}
	}
	if s.srv != nil {
		if s.linger > 0 && ctx.Err() == nil {
			fmt.Fprintf(w, "obs: endpoint http://%s lingering %v\n", s.Addr, s.linger)
			select {
			case <-time.After(s.linger):
			case <-ctx.Done():
				fmt.Fprintf(w, "obs: linger interrupted\n")
			}
		}
		s.srv.Stop() //nolint:errcheck
	}
	return len(violations)
}
