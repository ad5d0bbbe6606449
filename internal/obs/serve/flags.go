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
	// Monitors selects online monitors attached to machine runs:
	// comma list of residency[=Δ], drain, smr[=Δ], or "all"
	// ("" = none). A monitor's =Δ overrides the bound it checks;
	// without it the run's own Δ is used.
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
	fs.StringVar(&o.Monitors, "obs.monitor", "", "attach online monitors to machine runs: comma list of residency[=Δ], drain, smr[=Δ], or all")
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
	// each checked by a fresh set of the requested monitors.
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
		var factory func() *monitor.Set
		if spec := o.Monitors; spec != "" {
			if _, err := ParseMonitors(spec, reg); err != nil {
				return nil, err
			}
			factory = func() *monitor.Set {
				set, err := ParseMonitors(spec, reg)
				if err != nil {
					panic("serve: monitor spec: " + err.Error()) // validated above
				}
				return set
			}
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

// ParseMonitors builds a monitor set from a -obs.monitor spec:
// "residency", "residency=40,drain", "all", ... publishing into reg.
func ParseMonitors(spec string, reg *obs.Registry) (*monitor.Set, error) {
	var mons []monitor.Monitor
	add := func(name string, bound uint64) error {
		switch name {
		case "residency":
			mons = append(mons, monitor.NewResidency(reg, bound))
		case "drain":
			mons = append(mons, monitor.NewDrainAccounting())
		case "smr":
			mons = append(mons, monitor.NewSMRVisibility(reg, bound))
		default:
			return fmt.Errorf("serve: unknown monitor %q (valid: residency[=Δ], drain, smr[=Δ], all)", name)
		}
		return nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, boundStr, hasBound := strings.Cut(field, "=")
		var bound uint64
		if hasBound {
			v, err := strconv.ParseUint(boundStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: monitor %q: bad bound %q", name, boundStr)
			}
			bound = v
		}
		if name == "all" {
			if hasBound {
				return nil, fmt.Errorf("serve: monitor \"all\" takes no =Δ bound")
			}
			for _, n := range []string{"residency", "drain", "smr"} {
				if err := add(n, 0); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(name, bound); err != nil {
			return nil, err
		}
	}
	return monitor.NewSet(mons...), nil
}

// Server returns the running ops server (nil unless -obs.listen), so
// commands can attach command-specific sources — a campaign's coverage
// provider — after Start.
func (s *Session) Server() *Server { return s.srv }

// DumpFlight writes the flight to FlightDir/<name>.flight.json now and
// returns the path ("" without a flight or a flight dir). Finish then
// skips its on-violation dump, which would only repeat this one.
func (s *Session) DumpFlight(name string) (string, error) {
	if s.Flight == nil || s.flightDir == "" {
		return "", nil
	}
	s.dumped = true
	return s.Flight.DumpToFile(s.flightDir, name)
}

// Finish ends the session: it reports the flight's violations to w,
// dumps the flight into FlightDir if any monitor tripped, honors the
// linger window, and stops the server. name labels the artifact file.
// It returns the number of violations (callers fold it into their
// exit code).
func (s *Session) Finish(w io.Writer, name string) int {
	return s.FinishContext(context.Background(), w, name)
}

// FinishContext is Finish with interruption semantics. The linger
// window is cancellable: a signal arriving while the endpoint lingers
// cuts the window short instead of pinning the process in an
// unkillable sleep, and the server still stops. When ctx is already
// cancelled — the run was interrupted — a monitored session
// additionally dumps an unconditional <name>.interrupt.flight.json
// post-mortem artifact, violations or not.
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
