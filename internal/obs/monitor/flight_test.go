package monitor

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tbtso/internal/tso"
)

// recordGroup records one synthetic seed group: a single run with a
// couple of events.
func recordGroup(f *ShardedFlight, seed int64) *SeedGroup {
	r := f.Record(seed)
	r.BeginRun([]string{"T0"}, 4)
	r.TagRun(fmt.Sprintf("delta=4 policy=eager seed=%d", seed))
	r.Emit(tso.Event{Tick: uint64(seed), Thread: 0, Kind: tso.EvStore, Addr: 1, Val: tso.Word(seed)})
	r.Emit(tso.Event{Tick: uint64(seed) + 1, Thread: 0, Kind: tso.EvCommit, Addr: 1, Val: tso.Word(seed), Cause: tso.CauseFinal, Enq: uint64(seed)})
	return r.Finish()
}

// dumpString renders the dump.
func dumpString(t *testing.T, f *ShardedFlight) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestShardingInvariance pins the tentpole property at the monitor
// level: the merged dump depends only on which seeds completed, not on
// the order their groups were recorded in.
func TestShardingInvariance(t *testing.T) {
	const n = 50

	// Recorded and appended one seed at a time.
	a := NewShardedFlight(nil, 8)
	a.Begin(0)
	for s := int64(0); s < n; s++ {
		a.Append(recordGroup(a, s))
	}
	da := dumpString(t, a)

	// Recorded in reverse, as out-of-order workers would, then
	// appended in seed order.
	b := NewShardedFlight(nil, 8)
	b.Begin(0)
	groups := make([]*SeedGroup, n)
	for s := int64(n - 1); s >= 0; s-- {
		groups[s] = recordGroup(b, s)
	}
	for _, g := range groups {
		b.Append(g)
	}
	db := dumpString(t, b)

	if da != db {
		t.Errorf("dump depends on recording order:\n--- in order:\n%s\n--- reversed:\n%s", da, db)
	}

	// A resume split: totals restored from the "checkpoint", the
	// remaining segment re-recorded. The segment is longer than the
	// retention window, so the dump is byte-identical.
	c := NewShardedFlight(nil, 8)
	c.Begin(0)
	for s := int64(0); s < 20; s++ {
		c.Append(recordGroup(c, s))
	}
	ev, viol := c.Totals()

	d := NewShardedFlight(nil, 8)
	d.Restore(0, 20, ev, viol, c.Violating())
	for s := int64(20); s < n; s++ {
		d.Append(recordGroup(d, s))
	}
	dd := dumpString(t, d)
	if da != dd {
		t.Errorf("resumed dump differs from uninterrupted dump:\n--- uninterrupted:\n%s\n--- resumed:\n%s", da, dd)
	}
}

func TestDiscardedGroupLeavesNoTrace(t *testing.T) {
	f := NewShardedFlight(nil, 32)
	f.Begin(0)
	f.Append(recordGroup(f, 0))
	r := f.Record(1)
	r.BeginRun([]string{"T0"}, 4)
	r.Emit(tso.Event{Tick: 9, Thread: 0, Kind: tso.EvStore, Addr: 1, Val: 1})
	// The check was interrupted: its group is never appended.
	s := dumpString(t, f)
	if strings.Contains(s, "t=9") {
		t.Errorf("discarded group's events leaked into the dump:\n%s", s)
	}
	ev, _ := f.Totals()
	if ev != 2 {
		t.Errorf("totals include the discarded group: events=%d, want 2", ev)
	}
}

// TestPerGroupMonitors pins that each group gets a fresh monitor and
// violations are attributed to their seed.
func TestPerGroupMonitors(t *testing.T) {
	f := NewShardedFlight(func() *Residency {
		return NewResidency(nil, 1) // Δ=1: any latency > 1 trips
	}, 32)
	f.Begin(0)

	// Seed 0: commit latency 0 — clean.
	r := f.Record(0)
	r.BeginRun([]string{"T0"}, 1)
	r.Emit(tso.Event{Tick: 2, Thread: 0, Kind: tso.EvCommit, Addr: 1, Val: 1, Cause: tso.CauseDelta, Enq: 2})
	f.Append(r.Finish())

	// Seed 1: commit latency 5 > Δ=1 — violation.
	r = f.Record(1)
	r.BeginRun([]string{"T0"}, 1)
	r.Emit(tso.Event{Tick: 7, Thread: 0, Kind: tso.EvCommit, Addr: 1, Val: 1, Cause: tso.CauseDelta, Enq: 2})
	f.Append(r.Finish())

	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadCampaignFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.TotalViolations != 1 {
		t.Fatalf("TotalViolations = %d, want 1", doc.TotalViolations)
	}
	if len(doc.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(doc.Groups))
	}
	if len(doc.Groups[0].Violations) != 0 {
		t.Errorf("clean seed 0 carries violations: %v", doc.Groups[0].Violations)
	}
	if len(doc.Groups[1].Violations) != 1 {
		t.Errorf("violating seed 1 carries %d violations, want 1", len(doc.Groups[1].Violations))
	}
	if got := f.Violations(); len(got) != 1 {
		t.Errorf("Violations() = %d entries, want 1", len(got))
	}
}

// TestViolatingGroupsSurviveRetention: groups holding a violation
// outlive the retention window, but only the earliest maxSeeds of them.
func TestViolatingGroupsSurviveRetention(t *testing.T) {
	f := NewShardedFlight(nil, 2)
	f.Begin(0)
	for s := int64(0); s < 10; s++ {
		g := recordGroup(f, s)
		if s < 3 {
			g.Violations = []Violation{{Monitor: "planted", Thread: -1, Detail: fmt.Sprint(s)}}
		}
		f.Append(g)
	}
	doc, err := ReadCampaignFlightDump(bytes.NewBufferString(dumpString(t, f)))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []int64
	for _, g := range doc.Groups {
		seeds = append(seeds, g.Seed)
	}
	if fmt.Sprint(seeds) != "[0 1 8 9]" || doc.DroppedSeeds != 6 {
		t.Errorf("retained seeds %v (dropped %d), want [0 1 8 9] (dropped 6)", seeds, doc.DroppedSeeds)
	}
	if doc.TotalViolations != 3 || len(f.Violations()) != 2 {
		t.Errorf("violations: total %d, retained %d; want 3 and 2", doc.TotalViolations, len(f.Violations()))
	}
	if v := f.Violating(); len(v) != 2 || v[0].Seed != 0 || v[1].Seed != 1 {
		t.Errorf("Violating() = %d groups, want seeds 0 and 1", len(v))
	}
}

// TestGroupEventCap pins a group's retention: its first groupEventCap
// events are kept, across runs, and the rest are only counted.
func TestGroupEventCap(t *testing.T) {
	f := NewShardedFlight(nil, 0)
	r := f.Record(0)
	for run := 0; run < 2; run++ {
		r.BeginRun([]string{"T0"}, 4)
		for i := 0; i < groupEventCap/2+3; i++ {
			r.Emit(tso.Event{Tick: uint64(i), Thread: 0, Kind: tso.EvLoad, Addr: tso.Addr(run)})
		}
	}
	g := r.Finish()
	if g.Events != groupEventCap+6 || g.Dropped != 6 {
		t.Fatalf("events=%d dropped=%d, want %d and 6", g.Events, g.Dropped, groupEventCap+6)
	}
	if len(g.Runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(g.Runs))
	}
	if a, b := len(g.Runs[0].Events), len(g.Runs[1].Events); a != groupEventCap/2+3 || b != groupEventCap/2-3 {
		t.Fatalf("runs retained %d and %d events, want %d and %d", a, b, groupEventCap/2+3, groupEventCap/2-3)
	}
}

// TestJoinGroupsMatchesOneRecorder: a seed recorded cell by cell, each
// cell on its own recorder and monitor, joins into exactly the group one
// recorder records — here with the group's events passing groupEventCap
// inside its second cell and more than maxKept violations spread over
// its three cells — so Append and Dump write the same bytes.
func TestJoinGroupsMatchesOneRecorder(t *testing.T) {
	const seed = 7
	type cell struct{ runs, events int }
	cells := []cell{{2, 300}, {3, 300}, {2, 200}} // 600, 1,500 and 1,900 events in
	if cells[0].runs*cells[0].events >= groupEventCap {
		t.Fatal("test premise broken: the cap falls in the first cell")
	}
	record := func(r *SeedRecorder, c int) {
		for run := 0; run < cells[c].runs; run++ {
			r.BeginRun([]string{"T0", "T1"}, 1)
			r.TagRun(fmt.Sprintf("cell=%d run=%d", c, run))
			for i := 0; i < cells[c].events; i++ {
				e := tso.Event{Tick: uint64(i + 10), Thread: i % 2, Kind: tso.EvLoad, Addr: tso.Addr(c)}
				if i%40 == 0 { // a commit 10 ticks late: a violation at bound 1
					e.Kind, e.Enq = tso.EvCommit, uint64(i)
				}
				r.Emit(e)
			}
		}
	}
	factory := func() *Residency { return NewResidency(nil, 1) }

	one := NewShardedFlight(factory, 0)
	one.Begin(seed)
	r := one.Record(seed)
	for c := range cells {
		record(r, c)
	}
	want := r.Finish()
	one.Append(want)

	split := NewShardedFlight(factory, 0)
	split.Begin(seed)
	var parts []*SeedGroup
	for c := range cells {
		r := split.Record(seed)
		record(r, c)
		parts = append(parts, r.Finish())
	}
	got := JoinGroups(parts)
	split.Append(got)

	if want.Dropped == 0 || want.tripped <= maxKept {
		t.Fatalf("test premise broken: %d dropped events, %d violations", want.Dropped, want.tripped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joined group differs from one recorder's:\n got events=%d dropped=%d violations=%d\nwant events=%d dropped=%d violations=%d",
			got.Events, got.Dropped, len(got.Violations), want.Events, want.Dropped, len(want.Violations))
	}
	if a, b := dumpString(t, split), dumpString(t, one); a != b {
		t.Errorf("joined dump differs from one recorder's:\n%s\nvs\n%s", a, b)
	}
}
