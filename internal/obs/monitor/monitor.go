// Package monitor provides online runtime verification for the TBTSO
// abstract machine. Its one monitor, Residency, is a tso.Sink that
// checks the paper's temporal promise on the live event stream: every
// store commits within Δ ticks of its issue. FFHP's §4 hazard
// visibility and FFBL's revocation wait both rest on that promise, so
// a late hazard publication is a residency violation. The flight
// recorder, ShardedFlight, records monitored runs in seed-ordered
// groups, each checked by a fresh Residency, and dumps them as one
// JSON artifact. The monitor never panics on a violation; it records
// typed Violations and keeps streaming, so a monitored run always
// finishes and always reports. See docs/OBSERVABILITY.md.
package monitor

import "fmt"

// Violation is one observed residency breach: the offending tick
// window, the thread, and a human-readable detail.
// The first offending event is carried in rendered form so reports
// stay meaningful after the flight recorder has dropped the raw event.
type Violation struct {
	// Monitor names the reporting monitor; it is always "residency".
	Monitor string `json:"monitor"`
	// Thread is the offending model thread id (-1 when the violation
	// is not attributable to one thread).
	Thread int `json:"thread"`
	// Enq..Tick is the offending tick window: the store's enqueue and
	// commit ticks. Both are zero when no single event is at fault
	// (the overflow marker).
	Enq  uint64 `json:"enq,omitempty"`
	Tick uint64 `json:"tick,omitempty"`
	// Detail states the breached invariant with the observed values.
	Detail string `json:"detail"`
	// Event is the first offending event, rendered (empty when no
	// single event is at fault).
	Event string `json:"event,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s", v.Monitor, v.Detail)
	if v.Event != "" {
		s += " [" + v.Event + "]"
	}
	return s
}
