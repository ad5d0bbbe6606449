package monitor_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/litmus"
	"tbtso/internal/machalg"
	"tbtso/internal/obs"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/tso"
)

// plantedControl runs one of the machalg planted programs (fence-free
// algorithms that ASSUME a Δ bound) on a plain-TSO machine (Δ=0: the
// machine promises nothing) under the adversarial drain policy, with
// sink attached. This is the paper's negative control: the algorithm's
// assumption is betrayed and the monitors must say so.
func plantedControl(t *testing.T, name string, bound uint64, sink tso.Sink) {
	t.Helper()
	var p = machalg.MCFFHP(2, 2, int(bound)/2)
	if name == "ffbl" {
		p = machalg.MCFFBL(2, int(bound)/2)
	}
	run := fuzz.MachineRun{Delta: 0, Policy: tso.DrainAdversarial, Seed: 42}
	if _, err := fuzz.RunOnMachine(p, run, sink); err != nil {
		t.Fatalf("planted %s run: %v", name, err)
	}
}

// plantedMonitors is the monitor set the planted controls run under: a
// residency monitor expecting bound, plus drain accounting.
func plantedMonitors(bound uint64) *monitor.Set {
	reg := obs.NewRegistry()
	return monitor.NewSet(monitor.NewResidency(reg, bound), monitor.NewDrainAccounting())
}

// TestPlantedControlsTripResidency is the headline negative control of
// the observability layer: the plain-TSO plantings of FFHP and FFBL
// must trip the Δ-residency monitor, with violations carrying a
// coherent enqueue-to-commit window.
func TestPlantedControlsTripResidency(t *testing.T) {
	for _, name := range []string{"ffhp", "ffbl"} {
		t.Run(name, func(t *testing.T) {
			set := plantedMonitors(8)
			plantedControl(t, name, 8, set)
			if set.Ok() {
				t.Fatalf("planted %s on plain TSO produced no violations — the residency monitor is blind", name)
			}
			vs := set.Violations()
			sawResidency := false
			for _, v := range vs {
				if v.Monitor != "residency" {
					continue
				}
				sawResidency = true
				if v.Tick <= v.Enq {
					t.Errorf("violation window inverted: enq=%d tick=%d", v.Enq, v.Tick)
				}
				if v.Tick-v.Enq <= 8 {
					t.Errorf("violation reported for residency %d within bound 8", v.Tick-v.Enq)
				}
				if v.Detail == "" || v.Event == "" {
					t.Errorf("violation missing detail/event: %+v", v)
				}
			}
			if !sawResidency {
				t.Fatalf("no residency violation among %d violations", len(vs))
			}
		})
	}
}

// TestFlightDumpReplayable checks the flight artifact round trip: a
// tripped run recorded as one group dumps a document that parses back,
// identifies itself, and carries the violation report and the group's
// rendered events.
func TestFlightDumpReplayable(t *testing.T) {
	flight := monitor.NewShardedFlight(func() *monitor.Set { return plantedMonitors(8) }, 0)
	rec := flight.Record(0)
	plantedControl(t, "ffhp", 8, rec)
	flight.Append(rec.Finish())

	dir := t.TempDir()
	path, err := flight.DumpToFile(dir, "planted")
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "planted.flight.json") {
		t.Fatalf("artifact path = %q", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := monitor.ReadCampaignFlightDump(f)
	if err != nil {
		t.Fatalf("re-read dump: %v", err)
	}
	if doc.Kind != monitor.CampaignFlightKind || len(doc.Groups) != 1 {
		t.Fatalf("kind = %q, %d groups", doc.Kind, len(doc.Groups))
	}
	g := doc.Groups[0]
	if doc.TotalViolations == 0 || uint64(len(g.Violations)) != doc.TotalViolations {
		t.Fatalf("dump violations: total %d, group %d", doc.TotalViolations, len(g.Violations))
	}
	if doc.TotalEvents == 0 || len(g.Runs) != 1 || len(g.Runs[0].Events) == 0 {
		t.Fatalf("dump retained no events: total=%d runs=%d", doc.TotalEvents, len(g.Runs))
	}
}

// TestBoundedMachineRunsClean is the positive control twin: the same
// planted programs on a machine that actually enforces Δ=10 (the
// monitor inheriting that Δ via BeginRun) must produce zero violations.
func TestBoundedMachineRunsClean(t *testing.T) {
	reg := obs.NewRegistry()
	res := monitor.NewResidency(reg, 0) // inherit the run's Δ
	set := monitor.NewSet(res, monitor.NewDrainAccounting())
	for _, run := range []fuzz.MachineRun{
		{Delta: 10, Policy: tso.DrainAdversarial, Seed: 1},
		{Delta: 10, Policy: tso.DrainRandom, Seed: 2},
		{Delta: 10, Policy: tso.DrainEager, Seed: 3},
	} {
		if _, err := fuzz.RunOnMachine(machalg.MCFFHP(2, 2, 5), run, set); err != nil {
			t.Fatalf("bounded run: %v", err)
		}
		if _, err := fuzz.RunOnMachine(machalg.MCFFBL(2, 5), run, set); err != nil {
			t.Fatalf("bounded run: %v", err)
		}
	}
	if !set.Ok() {
		t.Fatalf("Δ-enforcing machine tripped monitors: %v", set.Violations())
	}
	if res.Bound() != 10 {
		t.Fatalf("monitor did not inherit run Δ: bound = %d", res.Bound())
	}
}

// TestLitmusSuiteMonitoredClean runs a full litmus sweep with the
// monitor set attached through RunConfig.Sinks: correct algorithms on a
// correct machine must be violation-free.
func TestLitmusSuiteMonitoredClean(t *testing.T) {
	set := monitor.NewSet(monitor.NewResidency(nil, 0), monitor.NewDrainAccounting())
	for _, test := range litmus.All(6) {
		rep := litmus.Run(test, litmus.RunConfig{
			Seeds: 5, Delta: 6, Sinks: []tso.Sink{set},
		})
		if len(rep.Errs) > 0 || rep.Total == 0 {
			t.Fatalf("%s: %d executions, errors %v", rep.Test, rep.Total, rep.Errs)
		}
	}
	if !set.Ok() {
		t.Fatalf("monitored litmus sweep tripped: %v", set.Violations())
	}
}

// TestFuzzSmokeMonitoredClean threads monitor sets through the
// differential fuzzer's Config.Flight: a short campaign's machine side
// runs entirely under residency verification and must stay clean.
func TestFuzzSmokeMonitoredClean(t *testing.T) {
	var mu sync.Mutex
	var sets []*monitor.Set
	flight := monitor.NewShardedFlight(func() *monitor.Set {
		set := monitor.NewSet(monitor.NewResidency(nil, 0), monitor.NewDrainAccounting())
		mu.Lock()
		sets = append(sets, set)
		mu.Unlock()
		return set
	}, 0)
	rep := fuzz.Run(fuzz.Config{Flight: flight, Deltas: []int{0, 2}}, 4, 1)
	if len(rep.Mismatches) > 0 {
		t.Fatalf("fuzz mismatches: %v", rep.Mismatches)
	}
	if len(sets) != 4 {
		t.Fatalf("monitored %d programs, want 4", len(sets))
	}
	for _, set := range sets {
		if !set.Ok() {
			t.Fatalf("monitored fuzz campaign tripped: %v", set.Violations())
		}
	}
}

// TestDrainAccountingVerifyStats cross-checks the event-derived drain
// tallies against the machine's own Stats on a real run.
func TestDrainAccountingVerifyStats(t *testing.T) {
	da := monitor.NewDrainAccounting()
	cfg := tso.Config{Delta: 12, Policy: tso.DrainRandom, Seed: 9, Sinks: []tso.Sink{da}}
	m := tso.New(cfg)
	a := m.AllocWords(4)
	m.Spawn("w", func(th *tso.Thread) {
		for i := 0; i < 40; i++ {
			th.Store(a+tso.Addr(i%4), tso.Word(i))
			if i%13 == 12 {
				th.Fence()
			}
		}
	})
	m.Spawn("r", func(th *tso.Thread) {
		for i := 0; i < 25; i++ {
			_ = th.Load(a + tso.Addr(i%4))
			if i%9 == 8 {
				th.CAS(a, 0, tso.Word(i))
			}
		}
	})
	res := m.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if vs := da.VerifyStats(res.Stats); len(vs) > 0 {
		t.Fatalf("drain accounting mismatch: %v", vs)
	}
	if len(da.Violations()) > 0 {
		t.Fatalf("online violations on a clean run: %v", da.Violations())
	}
	// A doctored Stats must be caught.
	bad := res.Stats
	bad.Commits++
	if vs := da.VerifyStats(bad); len(vs) == 0 {
		t.Fatal("doctored stats (Commits+1) not flagged")
	}
}

// TestSMRVisibilitySynthetic drives the hazard-slot watcher with a
// hand-built commit stream: timely publications pass, a late one
// violates, and the occupancy bookkeeping tracks publish/clear.
func TestSMRVisibilitySynthetic(t *testing.T) {
	reg := obs.NewRegistry()
	sv := monitor.NewSMRVisibility(reg, 5)
	sv.SetHazardRange(100, 4)
	sv.BeginRun([]string{"r0", "r1"}, 0)

	commit := func(addr tso.Addr, val tso.Word, enq, tick uint64) {
		sv.Emit(tso.Event{Kind: tso.EvCommit, Thread: 0, Addr: addr, Val: val, Enq: enq, Tick: tick})
	}
	commit(100, 7, 10, 13) // publish, lat 3: fine
	commit(100, 0, 20, 22) // clear
	commit(99, 9, 0, 50)   // out of range: ignored
	commit(104, 9, 0, 50)  // out of range: ignored
	if n := len(sv.Violations()); n != 0 {
		t.Fatalf("clean stream produced %d violations", n)
	}
	commit(101, 3, 30, 44) // publish, lat 14 > 5: the §4 missed-scan window
	vs := sv.Violations()
	if len(vs) != 1 {
		t.Fatalf("late publication not caught: %v", vs)
	}
	if vs[0].Monitor != "smr-visibility" || vs[0].Enq != 30 || vs[0].Tick != 44 {
		t.Fatalf("violation wrong: %+v", vs[0])
	}
	if got := reg.Counter(monitor.MetricSMRPublishes).Load(); got != 2 {
		t.Fatalf("publishes = %d, want 2", got)
	}
	if got := reg.Counter(monitor.MetricSMRClears).Load(); got != 1 {
		t.Fatalf("clears = %d, want 1", got)
	}
	if got := reg.Gauge(monitor.MetricSMRPublished).Load(); got != 1 {
		t.Fatalf("published gauge = %d, want 1", got)
	}
}

// TestSMRVisibilityOnReclaimDemo wires the monitor into the real §4
// demo through a flight recorder's SeedRecorder: the demo's sink-side
// SetHazardRange handshake must reach the group's smr monitor, and the
// fence-free scheme on a Δ-bounded machine must be clean.
func TestSMRVisibilityOnReclaimDemo(t *testing.T) {
	reg := obs.NewRegistry()
	flight := monitor.NewShardedFlight(func() *monitor.Set {
		return monitor.NewSet(monitor.NewSMRVisibility(reg, 0), monitor.NewResidency(reg, 0))
	}, 0)
	rec := flight.Record(0)
	out := machalg.ReclaimRaceDemo(8, machalg.HPFenceFree, rec)
	flight.Append(rec.Finish())
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.UseAfterFree || out.FreedEarly {
		t.Fatalf("FFHP on TBTSO[8] unsound: %+v", out)
	}
	if vs := flight.Violations(); len(vs) > 0 {
		t.Fatalf("monitored demo tripped: %v", vs)
	}
	if got := reg.Counter(monitor.MetricSMRPublishes).Load(); got == 0 {
		t.Fatal("SetHazardRange handshake failed: no hazard publications observed")
	}
}

// TestCheckSMRAccounting exercises the registry-fed reclaim invariant.
func TestCheckSMRAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	if vs := monitor.CheckSMRAccounting(reg, "X"); vs != nil {
		t.Fatalf("empty registry flagged: %v", vs)
	}
	reg.Counter("smr.X.retires").Add(10)
	reg.Counter("smr.X.frees").Add(7)
	reg.Gauge("smr.X.unreclaimed").Set(3)
	if vs := monitor.CheckSMRAccounting(reg, "X"); vs != nil {
		t.Fatalf("balanced books flagged: %v", vs)
	}
	reg.Gauge("smr.X.unreclaimed").Set(2) // lost a node
	vs := monitor.CheckSMRAccounting(reg, "X")
	if len(vs) != 1 || vs[0].Monitor != "smr-accounting" {
		t.Fatalf("lost node not flagged: %v", vs)
	}
}

// TestQuiesceCoverCheck exercises the registry-fed quiescence bound
// check directly.
func TestQuiesceCoverCheck(t *testing.T) {
	reg := obs.NewRegistry()
	qc := monitor.NewQuiesceCover(reg, 1000)
	if vs := qc.Check(); len(vs) != 0 {
		t.Fatalf("empty registry flagged: %v", vs)
	}
	h := reg.Histogram("quiesce.wait_ns", obs.ExpBuckets(1, 4, 16))
	h.Observe(400)
	h.Observe(990)
	if vs := qc.Check(); len(vs) != 0 {
		t.Fatalf("covered waits flagged: %v", vs)
	}
	h.Observe(1500)
	vs := monitor.NewQuiesceCover(reg, 1000).Check()
	if len(vs) != 1 || vs[0].Monitor != "quiesce-cover" {
		t.Fatalf("uncovered wait not flagged: %v", vs)
	}
}

// TestViolationOverflowMarker checks the retention cap: a monitor
// flooded with violations keeps a bounded report plus an overflow
// marker carrying the count of what was dropped.
func TestViolationOverflowMarker(t *testing.T) {
	m := monitor.NewResidency(nil, 1)
	m.BeginRun([]string{"w"}, 0)
	const flood = 100
	for i := 0; i < flood; i++ {
		m.Emit(tso.Event{Kind: tso.EvCommit, Thread: 0, Addr: 1, Val: 1,
			Enq: uint64(i), Tick: uint64(i + 10)})
	}
	vs := m.Violations()
	if len(vs) != 33 { // maxKept 32 + marker
		t.Fatalf("retained %d violations, want 33", len(vs))
	}
	last := vs[len(vs)-1]
	if want := fmt.Sprintf("%d further violations", flood-32); !bytes.Contains([]byte(last.Detail), []byte(want)) {
		t.Fatalf("overflow marker wrong: %q", last.Detail)
	}
}
