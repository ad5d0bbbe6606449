// Package monitor provides online runtime verification for the TBTSO
// abstract machine: composable tso.Sink implementations that check the
// paper's temporal invariants on the live event stream — the Δ
// residency bound on every commit, drain accounting, SMR hazard
// visibility — plus registry-fed checks (quiescence-bound coverage,
// SMR reclaim accounting) and the flight recorder, ShardedFlight, which
// records monitored runs in seed-ordered groups, each checked by a
// fresh monitor set, and dumps them as one JSON artifact. Monitors
// never panic on a violation; they record typed
// Violations and keep streaming, so a monitored run always finishes
// and always reports. See docs/OBSERVABILITY.md.
package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tbtso/internal/tso"
)

// Violation is one observed invariant breach: which monitor tripped,
// the offending tick window, the thread, and a human-readable detail.
// The first offending event is carried in rendered form so reports
// stay meaningful after the flight recorder has dropped the raw event.
type Violation struct {
	// Monitor is the reporting monitor's Name().
	Monitor string `json:"monitor"`
	// Thread is the offending model thread id (-1 when the violation
	// is not attributable to one thread).
	Thread int `json:"thread"`
	// Enq..Tick is the offending tick window: for a residency breach,
	// the store's enqueue and commit ticks. Both are zero for
	// registry-fed checks that have no tick coordinates.
	Enq  uint64 `json:"enq,omitempty"`
	Tick uint64 `json:"tick,omitempty"`
	// Detail states the breached invariant with the observed values.
	Detail string `json:"detail"`
	// Event is the first offending event, rendered (empty for
	// registry-fed checks).
	Event string `json:"event,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s", v.Monitor, v.Detail)
	if v.Event != "" {
		s += " [" + v.Event + "]"
	}
	return s
}

// maxKept bounds how many Violations each monitor retains verbatim;
// beyond it only the count grows, so a hopelessly broken run cannot
// make its own monitoring OOM.
const maxKept = 32

// recorder is the shared violation store embedded in every monitor.
// Recording takes a mutex — violations are off the hot path by
// definition — while the total stays readable without one.
type recorder struct {
	name  string
	mu    sync.Mutex
	kept  []Violation
	total atomic.Uint64
}

func (r *recorder) record(v Violation) {
	v.Monitor = r.name
	r.total.Add(1)
	r.mu.Lock()
	if len(r.kept) < maxKept {
		r.kept = append(r.kept, v)
	}
	r.mu.Unlock()
}

func (r *recorder) violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Violation(nil), r.kept...)
	if extra := r.total.Load() - uint64(len(out)); extra > 0 && len(out) > 0 {
		v := Violation{Monitor: r.name, Thread: -1,
			Detail: fmt.Sprintf("... and %d further violations not retained", extra)}
		out = append(out, v)
	}
	return out
}

// Monitor is an online checker: a tso.Sink that accumulates typed
// Violations instead of panicking. Monitors may also implement
// tso.RunObserver to learn the run's thread names and Δ.
type Monitor interface {
	tso.Sink
	// Name identifies the monitor in Violation reports.
	Name() string
	// Violations returns everything recorded so far (capped per
	// monitor at maxKept entries plus an overflow marker).
	Violations() []Violation
}

// Set is a composite of monitors that fans the event stream out to all
// of them and aggregates their violations. It implements tso.Sink and
// tso.RunObserver, so one Set attaches to a machine as a single sink.
// Its monitor list is fixed by NewSet.
type Set struct {
	mons []Monitor
}

// NewSet returns a set over the given monitors.
func NewSet(mons ...Monitor) *Set {
	return &Set{mons: append([]Monitor(nil), mons...)}
}

// Monitors returns a copy of the monitor list.
func (s *Set) Monitors() []Monitor {
	return append([]Monitor(nil), s.mons...)
}

// BeginRun implements tso.RunObserver by forwarding to every monitor
// that observes runs.
func (s *Set) BeginRun(names []string, delta uint64) {
	for _, m := range s.mons {
		if ro, ok := m.(tso.RunObserver); ok {
			ro.BeginRun(names, delta)
		}
	}
}

// Emit implements tso.Sink by forwarding to every monitor.
//
//tbtso:fencefree
func (s *Set) Emit(e tso.Event) {
	for _, m := range s.mons {
		m.Emit(e)
	}
}

// SetHazardRange forwards a hazard slot range to every member monitor
// that accepts one (the SMR visibility monitor), so a Set can be
// handed to machalg demos as a single opaque sink.
func (s *Set) SetHazardRange(base tso.Addr, n int) {
	for _, m := range s.mons {
		if rs, ok := m.(interface {
			SetHazardRange(base tso.Addr, n int)
		}); ok {
			rs.SetHazardRange(base, n)
		}
	}
}

// Violations aggregates every monitor's report, in NewSet order.
func (s *Set) Violations() []Violation {
	var out []Violation
	for _, m := range s.mons {
		out = append(out, m.Violations()...)
	}
	return out
}

// Ok reports whether no monitor has tripped.
func (s *Set) Ok() bool {
	for _, m := range s.mons {
		if len(m.Violations()) > 0 {
			return false
		}
	}
	return true
}
