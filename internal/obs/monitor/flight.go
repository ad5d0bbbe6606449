package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tbtso/internal/obs"
	"tbtso/internal/tso"
)

// FlightRecorderKind is the artifact's "kind" field, following the
// fuzz/verify artifact convention (fuzz.Artifact.Kind and the certs/
// counterexamples are likewise self-identifying JSON documents).
const FlightRecorderKind = "flight-recorder"

// FlightRecorder is the crash-dump side of monitoring: a single sink
// that wraps a RingSink (the retained event tail), a monitor Set, and
// the metrics registry, and can dump all three as one replayable JSON
// artifact — the violation report, the metrics snapshot, and the tail
// of the trace as an embedded Perfetto document openable at
// ui.perfetto.dev. Attach the recorder to the machine instead of the
// individual pieces; it fans events out.
//
// Dump reads the ring without synchronization, so dump after the run
// (or from the serve endpoint while the machine is idle); a mid-run
// dump over a live machine yields a torn tail.
type FlightRecorder struct {
	ring  *obs.RingSink
	reg   *obs.Registry
	set   *Set
	names []string
	delta uint64
}

// NewFlightRecorder returns a recorder retaining the last ringCap
// events, checking with set (nil for an empty Set), publishing
// snapshots of reg (nil for a private registry).
func NewFlightRecorder(reg *obs.Registry, set *Set, ringCap int) *FlightRecorder {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if set == nil {
		set = NewSet()
	}
	return &FlightRecorder{ring: obs.NewRingSink(ringCap), reg: reg, set: set}
}

// Monitors returns the recorder's monitor set (to attach monitors or
// read violations).
func (f *FlightRecorder) Monitors() *Set { return f.set }

// Ring returns the underlying ring sink.
func (f *FlightRecorder) Ring() *obs.RingSink { return f.ring }

// BeginRun implements tso.RunObserver.
func (f *FlightRecorder) BeginRun(names []string, delta uint64) {
	f.names = append(f.names[:0], names...)
	f.delta = delta
	f.set.BeginRun(names, delta)
}

// Emit implements tso.Sink: one ring write plus the monitor fan-out.
//
//tbtso:fencefree
func (f *FlightRecorder) Emit(e tso.Event) {
	f.ring.Emit(e)
	f.set.Emit(e)
}

// SetHazardRange forwards a hazard slot range to the monitor set.
func (f *FlightRecorder) SetHazardRange(base tso.Addr, n int) {
	f.set.SetHazardRange(base, n)
}

// FlightDump is the artifact wire form: the violation report, the
// metrics snapshot, event counts, and the retained trace tail as an
// embedded Perfetto document.
type FlightDump struct {
	Kind           string          `json:"kind"`
	Delta          uint64          `json:"delta"`
	Threads        []string        `json:"threads,omitempty"`
	TotalEvents    uint64          `json:"total_events"`
	RetainedEvents int             `json:"retained_events"`
	DroppedEvents  uint64          `json:"dropped_events"`
	Violations     []Violation     `json:"violations"`
	Metrics        []obs.Metric    `json:"metrics"`
	Trace          json.RawMessage `json:"trace"`
}

// Dump writes the flight artifact: violation report, metrics snapshot,
// and the retained event tail as an embedded Perfetto trace document.
func (f *FlightRecorder) Dump(w io.Writer) error {
	events := f.ring.Events()
	var trace bytes.Buffer
	if err := obs.PerfettoFromEvents(events, f.names, f.delta).WriteJSON(&trace); err != nil {
		return fmt.Errorf("monitor: rendering flight trace: %w", err)
	}
	violations := f.set.Violations()
	if violations == nil {
		violations = []Violation{}
	}
	doc := FlightDump{
		Kind:           FlightRecorderKind,
		Delta:          f.delta,
		Threads:        f.names,
		TotalEvents:    f.ring.Total(),
		RetainedEvents: len(events),
		DroppedEvents:  f.ring.Dropped(),
		Violations:     violations,
		Metrics:        f.reg.Snapshot(),
		Trace:          json.RawMessage(bytes.TrimSpace(trace.Bytes())),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DumpOnViolation writes the artifact to dir/<name>.flight.json if any
// monitor has tripped, creating dir as needed. It returns the written
// path, or "" when there was nothing to report.
func (f *FlightRecorder) DumpOnViolation(dir, name string) (string, error) {
	if f.set.Ok() {
		return "", nil
	}
	return f.DumpToFile(dir, name)
}

// DumpToFile unconditionally writes the artifact to
// dir/<name>.flight.json, creating dir as needed, and returns the
// written path. Interruption handling uses this: a cancelled run dumps
// its tail for post-mortem even when no monitor tripped.
func (f *FlightRecorder) DumpToFile(dir, name string) (string, error) {
	return dumpToFile(dir, name, f.Dump)
}

// dumpToFile writes dump's artifact to dir/<name>.flight.json, creating
// dir as needed, and returns the written path.
func dumpToFile(dir, name string, dump func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".flight.json")
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := dump(file); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}

// ReadFlightDump parses a flight artifact (the embedded trace stays
// raw). It rejects documents of the wrong kind.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var doc FlightDump
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	if doc.Kind != FlightRecorderKind {
		return nil, fmt.Errorf("monitor: artifact kind %q, want %q", doc.Kind, FlightRecorderKind)
	}
	return &doc, nil
}
