package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"tbtso/internal/tso"
)

// Perfetto is a tso.Sink that renders the machine's execution as a
// Chrome trace-event JSON document, loadable in ui.perfetto.dev or
// chrome://tracing:
//
//   - each model thread is a track (pid 1) carrying one slice per
//     action — store enqueue, load, fence, RMW — plus the commit
//     slices the memory subsystem performs on the thread's behalf;
//   - every store→commit pair is connected by a flow arrow whose
//     length IS the store's commit latency, the quantity the Δ bound
//     constrains;
//   - per-thread counter tracks plot store-buffer occupancy over time;
//   - commit slices carry the drain cause (delta / policy / fence /
//     rmw / capacity / interrupt / final) in their args.
//
// One model tick is rendered as one microsecond. Emit accumulates;
// call WriteJSON after the run.
type Perfetto struct {
	names []string
	delta uint64
	evs   []traceEvent
	// pending[t] holds flow ids of thread t's buffered stores (FIFO,
	// mirroring the store buffer); nextID numbers flows.
	pending [][]uint64
	nextID  uint64
}

// NewPerfetto returns an empty exporter.
func NewPerfetto() *Perfetto {
	return &Perfetto{}
}

// PerfettoFromEvents converts an already-recorded trace (e.g. from
// Machine.Trace or a RingSink) into an exporter. names may be nil, in
// which case threads are labeled T0, T1, ...
func PerfettoFromEvents(events []tso.Event, names []string, delta uint64) *Perfetto {
	p := NewPerfetto()
	p.BeginRun(names, delta)
	for _, e := range events {
		p.Emit(e)
	}
	return p
}

// traceEvent is one entry of the Chrome trace-event JSON format.
type traceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const perfettoPid = 1

// BeginRun implements tso.RunObserver: it records thread names and Δ
// and emits the process/thread metadata events.
func (p *Perfetto) BeginRun(names []string, delta uint64) {
	p.names = names
	p.delta = delta
	p.pending = make([][]uint64, len(names))
	p.evs = append(p.evs, traceEvent{
		Ph: "M", Name: "process_name", Pid: perfettoPid, Tid: 0,
		Args: map[string]any{"name": "tbtso machine"},
	})
	for i, n := range names {
		p.evs = append(p.evs, traceEvent{
			Ph: "M", Name: "thread_name", Pid: perfettoPid, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("T%d %s", i, n)},
		})
	}
}

// ensureThread grows the pending table for traces without BeginRun
// (post-hoc conversion of a bare event slice).
func (p *Perfetto) ensureThread(i int) {
	for len(p.pending) <= i {
		p.pending = append(p.pending, nil)
	}
}

// Emit implements tso.Sink by appending the event's trace-viewer
// rendering. It runs on the machine's scheduling goroutine; the slice
// appends amortize but this sink is for attached-trace runs, not the
// no-sink fast path.
//
//tbtso:fencefree
func (p *Perfetto) Emit(e tso.Event) {
	ts := float64(e.Tick)
	p.ensureThread(e.Thread)
	switch e.Kind {
	case tso.EvStore:
		p.nextID++
		id := p.nextID
		p.pending[e.Thread] = append(p.pending[e.Thread], id)
		p.evs = append(p.evs,
			traceEvent{
				Ph: "X", Name: fmt.Sprintf("store [%d]=%d", e.Addr, e.Val), Cat: "store",
				Pid: perfettoPid, Tid: e.Thread, Ts: ts, Dur: 1,
				Args: map[string]any{"addr": uint64(e.Addr), "val": uint64(e.Val)},
			},
			// Flow start: the arrow leaves the store slice...
			traceEvent{
				Ph: "s", Name: "buffered", Cat: "sb", ID: id,
				Pid: perfettoPid, Tid: e.Thread, Ts: ts,
			},
			traceEvent{
				Ph: "C", Name: fmt.Sprintf("T%d buffer depth", e.Thread),
				Pid: perfettoPid, Tid: e.Thread, Ts: ts,
				Args: map[string]any{"stores": len(p.pending[e.Thread])},
			},
		)
	case tso.EvCommit:
		lat := e.Tick - e.Enq
		args := map[string]any{
			"addr": uint64(e.Addr), "val": uint64(e.Val),
			"cause": e.Cause.String(), "latency_ticks": lat,
		}
		p.evs = append(p.evs, traceEvent{
			Ph: "X", Name: fmt.Sprintf("commit [%d]=%d", e.Addr, e.Val), Cat: "commit",
			Pid: perfettoPid, Tid: e.Thread, Ts: ts, Dur: 1, Args: args,
		})
		// ...and lands on the commit slice (FIFO pairing mirrors the
		// store buffer; a ring-truncated trace may lack the store).
		if q := p.pending[e.Thread]; len(q) > 0 {
			id := q[0]
			p.pending[e.Thread] = q[1:]
			p.evs = append(p.evs,
				traceEvent{
					Ph: "f", BP: "e", Name: "buffered", Cat: "sb", ID: id,
					Pid: perfettoPid, Tid: e.Thread, Ts: ts,
				},
				traceEvent{
					Ph: "C", Name: fmt.Sprintf("T%d buffer depth", e.Thread),
					Pid: perfettoPid, Tid: e.Thread, Ts: ts,
					Args: map[string]any{"stores": len(p.pending[e.Thread])},
				},
			)
		}
	case tso.EvLoad:
		p.evs = append(p.evs, traceEvent{
			Ph: "X", Name: fmt.Sprintf("load [%d]=%d", e.Addr, e.Val), Cat: "load",
			Pid: perfettoPid, Tid: e.Thread, Ts: ts, Dur: 1,
			Args: map[string]any{"addr": uint64(e.Addr), "val": uint64(e.Val)},
		})
	case tso.EvRMW:
		p.evs = append(p.evs, traceEvent{
			Ph: "X", Name: fmt.Sprintf("rmw [%d]=%d", e.Addr, e.Val), Cat: "rmw",
			Pid: perfettoPid, Tid: e.Thread, Ts: ts, Dur: 1,
			Args: map[string]any{"addr": uint64(e.Addr), "val": uint64(e.Val)},
		})
	case tso.EvFence:
		p.evs = append(p.evs, traceEvent{
			Ph: "X", Name: "fence", Cat: "fence",
			Pid: perfettoPid, Tid: e.Thread, Ts: ts, Dur: 1,
		})
	}
}

// perfettoDoc is the top-level Chrome trace JSON object.
type perfettoDoc struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteJSON renders the accumulated trace. One model tick is one
// microsecond of trace time.
func (p *Perfetto) WriteJSON(w io.Writer) error {
	doc := perfettoDoc{
		TraceEvents:     p.evs,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"model":          "TBTSO",
			"delta_ticks":    p.delta,
			"tick_time_unit": "1 tick rendered as 1us",
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// EventCount reports how many trace-viewer events have accumulated
// (metadata included).
func (p *Perfetto) EventCount() int { return len(p.evs) }
