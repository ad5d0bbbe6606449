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
	"tbtso/internal/tso"
)

// Options is the shared -obs.* flag block every tbtso CLI registers,
// so monitoring and the ops endpoint work identically across
// tbtso-sim, tbtso-bench, tbtso-fuzz and tbtso-verify.
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
	// Ring is the flight recorder's event capacity.
	Ring int
}

// Register installs the -obs.* flags on fs (pass flag.CommandLine).
func (o *Options) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Listen, "obs.listen", "", "serve the ops endpoint (/metrics, /metrics.json, /healthz, /violations, /flightrecorder, /coverage, /debug/pprof) on this address; :0 picks a port")
	fs.StringVar(&o.Monitors, "obs.monitor", "", "attach online monitors to machine runs: comma list of residency[=Δ], drain, smr[=Δ], or all")
	fs.DurationVar(&o.Linger, "obs.linger", 0, "keep the ops endpoint serving this long after the run finishes")
	fs.StringVar(&o.FlightDir, "obs.flightdir", "", "write a flight-recorder artifact here when a monitor reports a violation")
	fs.IntVar(&o.Ring, "obs.ring", 4096, "flight-recorder ring capacity in events")
}

// Session is a started observability session: the registry, the
// monitor set and flight recorder (nil unless monitors were
// requested), and the running ops server (nil unless -obs.listen).
type Session struct {
	Registry *obs.Registry
	Monitors *monitor.Set
	Recorder *monitor.FlightRecorder
	// Addr is the ops endpoint's bound address ("" when not serving).
	Addr string

	srv       *Server
	linger    time.Duration
	flightDir string
}

// Start builds the session from the parsed flags: it parses the
// monitor spec, wires the flight recorder, and starts the ops
// endpoint. reg may be nil (a fresh registry is created). A zero
// Options yields an inert session whose Sinks() is empty.
func (o Options) Start(reg *obs.Registry) (*Session, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Session{Registry: reg, linger: o.Linger, flightDir: o.FlightDir}

	if o.Monitors != "" {
		set, err := ParseMonitors(o.Monitors, reg)
		if err != nil {
			return nil, err
		}
		ring := o.Ring
		if ring <= 0 {
			ring = 4096
		}
		s.Monitors = set
		s.Recorder = monitor.NewFlightRecorder(reg, set, ring)
	}

	if o.Listen != "" {
		srv := New(reg)
		if s.Monitors != nil {
			srv.SetMonitors(s.Monitors)
		}
		if s.Recorder != nil {
			srv.SetFlightRecorder(s.Recorder)
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
	set := monitor.NewSet()
	add := func(name string, bound uint64) error {
		switch name {
		case "residency":
			set.Attach(monitor.NewResidency(reg, bound))
		case "drain":
			set.Attach(monitor.NewDrainAccounting())
		case "smr":
			set.Attach(monitor.NewSMRVisibility(reg, bound))
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
	return set, nil
}

// Server returns the running ops server (nil unless -obs.listen), so
// commands can attach command-specific sources — a campaign's coverage
// provider, a sharded flight dumper — after Start.
func (s *Session) Server() *Server { return s.srv }

// Sinks returns what to attach to each machine run: the flight
// recorder (which fans out to the monitors) when monitoring is on,
// nothing otherwise. Callers that also want machine.* metrics attach
// obs.NewMachineMetrics(session.Registry) alongside.
func (s *Session) Sinks() []tso.Sink {
	if s.Recorder == nil {
		return nil
	}
	return []tso.Sink{s.Recorder}
}

// Finish ends the session: it reports violations to w, dumps the
// flight artifact into FlightDir if any monitor tripped, honors the
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
// cancelled — the run was interrupted — the recorder additionally
// dumps an unconditional <name>.interrupt.flight.json post-mortem
// artifact, violations or not.
func (s *Session) FinishContext(ctx context.Context, w io.Writer, name string) int {
	var violations []monitor.Violation
	if s.Monitors != nil {
		violations = s.Monitors.Violations()
	}
	for _, v := range violations {
		fmt.Fprintf(w, "obs: VIOLATION %s\n", v)
	}
	if s.Recorder != nil && s.flightDir != "" {
		if path, err := s.Recorder.DumpOnViolation(s.flightDir, name); err != nil {
			fmt.Fprintf(w, "obs: flight dump: %v\n", err)
		} else if path != "" {
			fmt.Fprintf(w, "obs: flight-recorder artifact: %s\n", path)
		}
		if ctx.Err() != nil {
			if path, err := s.Recorder.DumpToFile(s.flightDir, name+".interrupt"); err != nil {
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
