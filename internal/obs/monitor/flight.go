package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tbtso/internal/obs"
	"tbtso/internal/tso"
)

// CampaignFlightKind is the "kind" field of the flight artifact written
// by ShardedFlight.Dump, following the fuzz/verify artifact convention
// of self-identifying JSON documents.
const CampaignFlightKind = "campaign-flight"

// groupEventCap bounds the retained rendered events per seed group so a
// pathological program cannot balloon the dump; beyond it only the
// event count grows.
const groupEventCap = 1024

// RunRecord is one sampled machine run inside a seed group: the run
// shape, an optional driver tag (Δ/policy/seed of the sample), and the
// rendered event stream.
type RunRecord struct {
	Threads []string `json:"threads,omitempty"`
	Delta   uint64   `json:"delta"`
	// Tag identifies the sample within the sweep (set via TagRun).
	Tag string `json:"tag,omitempty"`
	// Events is the rendered event stream (capped per group).
	Events []string `json:"events,omitempty"`
}

// SeedGroup is everything recorded while checking one generator seed's
// program: its machine runs and any residency violations they tripped.
// Violations are attributed exactly: each group gets a fresh monitor,
// so a violating seed cannot contaminate its neighbours' reports.
type SeedGroup struct {
	Seed       int64       `json:"seed"`
	Runs       []RunRecord `json:"runs,omitempty"`
	Events     uint64      `json:"events"`
	Dropped    uint64      `json:"dropped_events,omitempty"`
	Violations []Violation `json:"violations,omitempty"`
}

// SeedRecorder records one seed's program check into its own group: a
// tso.Sink plus RunObserver owned by the one goroutine checking that
// program, so no lock is ever taken on the event hot path. A check that
// is cut short simply never hands its group to the flight.
type SeedRecorder struct {
	mon    *Residency // fresh per group (nil when no monitor factory)
	group  *SeedGroup
	curRun *RunRecord
}

// Record starts recording the check of seed's program, with a fresh
// monitor from the flight's factory. Safe to call from any worker.
func (f *ShardedFlight) Record(seed int64) *SeedRecorder {
	r := &SeedRecorder{group: &SeedGroup{Seed: seed}}
	if f.factory != nil {
		r.mon = f.factory()
	}
	return r
}

// BeginRun implements tso.RunObserver: a new machine run starts within
// the group.
func (r *SeedRecorder) BeginRun(names []string, delta uint64) {
	if r.mon != nil {
		r.mon.BeginRun(names, delta)
	}
	r.group.Runs = append(r.group.Runs, RunRecord{Threads: append([]string(nil), names...), Delta: delta})
	r.curRun = &r.group.Runs[len(r.group.Runs)-1]
}

// TagRun labels the current run with the sweep sample that produced it
// (e.g. "delta=1 policy=random seed=2").
func (r *SeedRecorder) TagRun(tag string) {
	if r.curRun != nil {
		r.curRun.Tag = tag
	}
}

// Emit implements tso.Sink: render into the current run, bounded per
// group, and feed the group's monitor.
//
//tbtso:fencefree
func (r *SeedRecorder) Emit(e tso.Event) {
	if r.mon != nil {
		r.mon.Emit(e)
	}
	r.group.Events++
	if r.curRun == nil {
		return
	}
	if r.group.Events > groupEventCap {
		r.group.Dropped++
		return
	}
	r.curRun.Events = append(r.curRun.Events, e.String())
}

// Finish returns the recorded group with its monitor's violations
// attached. The recorder must not be used afterwards.
func (r *SeedRecorder) Finish() *SeedGroup {
	if r.mon != nil {
		r.group.Violations = r.mon.Violations()
	}
	return r.group
}

// ShardedFlight is the flight recorder, the crash-dump side of
// monitoring: a fuzz campaign records one group per generator seed,
// tbtso-sim one per litmus test or demo. Recording is sharded per seed
// — each program check records into its own SeedRecorder on whichever
// worker runs it, with no shared state — and the driver Appends the
// finished groups in seed order, so the store is an ordered log of the
// completed prefix. The dump depends only on which seeds completed,
// never on how they were spread across workers, so it is byte-identical
// across worker counts and across a checkpoint/resume split (provided
// the resumed segment spans at least the retention window: clean groups
// are not persisted in checkpoints, only the running totals and the
// violating groups are).
//
// Every method is safe for concurrent use; the live /flightrecorder
// endpoint dumps while the campaign appends.
type ShardedFlight struct {
	factory  func() *Residency // per-group monitors (nil = capture only)
	maxSeeds int

	mu        sync.Mutex
	firstSeed int64
	nextSeed  int64 // the appended groups cover exactly [firstSeed, nextSeed)
	// recent is the last maxSeeds appended groups; kept holds the
	// earliest maxSeeds violating groups that fell out of recent, so
	// violation evidence survives retention. Both are in seed order, and
	// every kept seed precedes every recent one.
	recent      []*SeedGroup
	kept        []*SeedGroup
	totalEvents uint64
	totalViol   uint64
}

// DefaultFlightSeeds is the default retention: the dump keeps the last
// this-many completed seed groups, plus up to this many earlier groups
// holding a violation.
const DefaultFlightSeeds = 32

// NewShardedFlight returns a flight recorder. factory builds one
// fresh monitor per seed group (nil records events only);
// maxSeeds is the retention window (<= 0 selects DefaultFlightSeeds).
func NewShardedFlight(factory func() *Residency, maxSeeds int) *ShardedFlight {
	if maxSeeds <= 0 {
		maxSeeds = DefaultFlightSeeds
	}
	return &ShardedFlight{factory: factory, maxSeeds: maxSeeds}
}

// Begin sets the campaign's first seed — the left edge of the prefix
// the dump reports. Call once before the first Append.
func (f *ShardedFlight) Begin(firstSeed int64) {
	f.Restore(firstSeed, firstSeed, 0, 0, nil)
}

// Restore resumes a campaign recorder from a checkpoint: the campaign's
// (not the segment's) first seed, the resume cursor, the running totals
// (Totals) and the violating groups (Violating) the checkpoint carried,
// so a resumed campaign's final dump reports the whole campaign.
func (f *ShardedFlight) Restore(firstSeed, nextSeed int64, totalEvents, totalViolations uint64, violating []SeedGroup) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.firstSeed, f.nextSeed = firstSeed, nextSeed
	f.totalEvents, f.totalViol = totalEvents, totalViolations
	f.recent, f.kept = nil, nil
	for i := range violating {
		f.kept = append(f.kept, &violating[i])
	}
}

// Append adds the next completed seed's group. Groups must arrive in
// seed order, each only once its seed is complete — the campaign driver
// (fuzz.Stream) guarantees both. The oldest group beyond the retention
// window is dropped unless it holds a violation and fewer than maxSeeds
// violating groups are kept.
func (f *ShardedFlight) Append(g *SeedGroup) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextSeed = g.Seed + 1
	f.totalEvents += g.Events
	f.totalViol += uint64(len(g.Violations))
	f.recent = append(f.recent, g)
	if len(f.recent) > f.maxSeeds {
		old := f.recent[0]
		f.recent = f.recent[1:]
		if len(old.Violations) > 0 && len(f.kept) < f.maxSeeds {
			f.kept = append(f.kept, old)
		}
	}
}

// Totals returns the running totals over every appended seed
// (including dropped ones) — what a campaign persists in its checkpoint
// for Restore.
func (f *ShardedFlight) Totals() (events, violations uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalEvents, f.totalViol
}

// Violations returns the violations of every retained group, in seed
// order.
func (f *ShardedFlight) Violations() []Violation {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Violation
	for _, g := range f.groupsLocked() {
		out = append(out, g.Violations...)
	}
	return out
}

// Violating returns the earliest maxSeeds retained groups holding a
// violation — what a campaign persists in its checkpoint, so a resumed
// dump keeps the same violation evidence as an uninterrupted one.
func (f *ShardedFlight) Violating() []SeedGroup {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []SeedGroup
	for _, g := range f.groupsLocked() {
		if len(g.Violations) > 0 && len(out) < f.maxSeeds {
			out = append(out, *g)
		}
	}
	return out
}

// groupsLocked returns the retained groups in seed order.
func (f *ShardedFlight) groupsLocked() []*SeedGroup {
	return append(f.kept[:len(f.kept):len(f.kept)], f.recent...)
}

// CampaignFlightDump is the merged artifact wire form. It carries no
// wall-clock or worker-count fields: two campaigns over the same seed
// prefix dump byte-identical documents whatever their parallelism.
type CampaignFlightDump struct {
	Kind string `json:"kind"`
	// FirstSeed..NextSeed is the covered prefix: every seed in
	// [FirstSeed, NextSeed) completed and contributed to the totals.
	FirstSeed int64 `json:"first_seed"`
	NextSeed  int64 `json:"next_seed"`
	// RetainedSeeds is how many groups the dump carries (the highest
	// seeds of the prefix up to the retention window, plus the earliest
	// violating groups before it); DroppedSeeds is the rest of the
	// prefix.
	RetainedSeeds   int         `json:"retained_seeds"`
	DroppedSeeds    int64       `json:"dropped_seeds"`
	TotalEvents     uint64      `json:"total_events"`
	TotalViolations uint64      `json:"total_violations"`
	Groups          []SeedGroup `json:"groups"`
}

// doc snapshots the merged campaign flight artifact: seed-ordered
// retained groups plus prefix-wide totals.
func (f *ShardedFlight) doc() CampaignFlightDump {
	f.mu.Lock()
	defer f.mu.Unlock()
	groups := f.groupsLocked()
	doc := CampaignFlightDump{
		Kind:            CampaignFlightKind,
		FirstSeed:       f.firstSeed,
		NextSeed:        f.nextSeed,
		RetainedSeeds:   len(groups),
		DroppedSeeds:    (f.nextSeed - f.firstSeed) - int64(len(groups)),
		TotalEvents:     f.totalEvents,
		TotalViolations: f.totalViol,
		Groups:          make([]SeedGroup, 0, len(groups)),
	}
	for _, g := range groups {
		doc.Groups = append(doc.Groups, *g)
	}
	return doc
}

// Dump writes the merged campaign flight artifact to w (the
// /flightrecorder endpoint); DumpToFile writes the same bytes.
func (f *ShardedFlight) Dump(w io.Writer) error {
	return obs.EncodeDoc(w, f.doc())
}

// DumpToFile atomically writes the artifact to dir/<name>.flight.json
// (obs.WriteDoc), creating dir as needed, and returns the written path.
// A dump interrupted mid-write leaves no torn file behind.
func (f *ShardedFlight) DumpToFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".flight.json")
	_, err := obs.WriteDoc(path, f.doc())
	return path, err
}

// ReadCampaignFlightDump parses a flight artifact, rejecting documents
// of the wrong kind.
func ReadCampaignFlightDump(r io.Reader) (*CampaignFlightDump, error) {
	var doc CampaignFlightDump
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	if doc.Kind != CampaignFlightKind {
		return nil, fmt.Errorf("monitor: artifact kind %q, want %q", doc.Kind, CampaignFlightKind)
	}
	return &doc, nil
}
