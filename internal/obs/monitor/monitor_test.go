package monitor_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// assumption is betrayed and the monitor must say so.
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

// TestPlantedControlsTripResidency is the headline negative control of
// the observability layer: the plain-TSO plantings of FFHP and FFBL
// must trip the Δ-residency monitor, with violations carrying a
// coherent enqueue-to-commit window.
func TestPlantedControlsTripResidency(t *testing.T) {
	for _, name := range []string{"ffhp", "ffbl"} {
		t.Run(name, func(t *testing.T) {
			res := monitor.NewResidency(nil, 8)
			plantedControl(t, name, 8, res)
			vs := res.Violations()
			if len(vs) == 0 {
				t.Fatalf("planted %s on plain TSO produced no violations — the residency monitor is blind", name)
			}
			for _, v := range vs {
				if v.Monitor != "residency" {
					t.Errorf("violation from monitor %q", v.Monitor)
				}
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
		})
	}
}

// TestFlightDumpReplayable checks the flight artifact round trip: a
// tripped run recorded as one group dumps a document that parses back,
// identifies itself, and carries the violation report and the group's
// rendered events.
func TestFlightDumpReplayable(t *testing.T) {
	flight := monitor.NewShardedFlight(func() *monitor.Residency { return monitor.NewResidency(nil, 8) }, 0)
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
	res := monitor.NewResidency(obs.NewRegistry(), 0) // inherit the run's Δ
	for _, run := range []fuzz.MachineRun{
		{Delta: 10, Policy: tso.DrainAdversarial, Seed: 1},
		{Delta: 10, Policy: tso.DrainRandom, Seed: 2},
		{Delta: 10, Policy: tso.DrainEager, Seed: 3},
	} {
		if _, err := fuzz.RunOnMachine(machalg.MCFFHP(2, 2, 5), run, res); err != nil {
			t.Fatalf("bounded run: %v", err)
		}
		if _, err := fuzz.RunOnMachine(machalg.MCFFBL(2, 5), run, res); err != nil {
			t.Fatalf("bounded run: %v", err)
		}
	}
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("Δ-enforcing machine tripped the monitor: %v", vs)
	}
	if res.Bound() != 10 {
		t.Fatalf("monitor did not inherit run Δ: bound = %d", res.Bound())
	}
}

// TestLitmusSuiteMonitoredClean runs a full litmus sweep with the
// monitor attached through RunConfig.Sinks: correct algorithms on a
// correct machine must be violation-free.
func TestLitmusSuiteMonitoredClean(t *testing.T) {
	res := monitor.NewResidency(nil, 0)
	for _, test := range litmus.All(6) {
		rep := litmus.Run(test, litmus.RunConfig{
			Seeds: 5, Delta: 6, Sinks: []tso.Sink{res},
		})
		if len(rep.Errs) > 0 || rep.Total == 0 {
			t.Fatalf("%s: %d executions, errors %v", rep.Test, rep.Total, rep.Errs)
		}
	}
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("monitored litmus sweep tripped: %v", vs)
	}
}

// TestFuzzSmokeMonitoredClean threads monitors through the
// differential fuzzer's Config.Flight: a short campaign's machine side
// runs entirely under residency verification and must stay clean.
func TestFuzzSmokeMonitoredClean(t *testing.T) {
	var mu sync.Mutex
	var mons []*monitor.Residency
	flight := monitor.NewShardedFlight(func() *monitor.Residency {
		res := monitor.NewResidency(nil, 0)
		mu.Lock()
		mons = append(mons, res)
		mu.Unlock()
		return res
	}, 0)
	rep := fuzz.Run(fuzz.Config{Flight: flight, Deltas: []int{0, 2}}, 4, 1)
	if len(rep.Mismatches) > 0 {
		t.Fatalf("fuzz mismatches: %v", rep.Mismatches)
	}
	if len(mons) != 4*2 { // one monitor per (seed, Δ) cell
		t.Fatalf("monitored %d cells, want 8", len(mons))
	}
	for _, res := range mons {
		if vs := res.Violations(); len(vs) > 0 {
			t.Fatalf("monitored fuzz campaign tripped: %v", vs)
		}
	}
}

// TestResidencyOnReclaimDemo runs the residency monitor on the §4
// reclamation race (machalg.ReclaimRaceDemo). FFHP on TBTSO[8] is
// clean at the run's own Δ. The unsafe row on plain TSO, checked at
// bound 8, trips, and its violations include the late hazard
// publication: the reader's (T0) commit of node 1 into its hazard slot
// 1, at address 10, more than 8 ticks after its issue — a reclaim scan
// waiting 8 ticks could have missed it. The exact ticks depend on how
// the demo's handshake goroutines are scheduled.
func TestResidencyOnReclaimDemo(t *testing.T) {
	res := monitor.NewResidency(nil, 0)
	out := machalg.ReclaimRaceDemo(8, machalg.HPFenceFree, res)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.UseAfterFree || out.FreedEarly {
		t.Fatalf("FFHP on TBTSO[8] unsound: %+v", out)
	}
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("FFHP on TBTSO[8] tripped: %v", vs)
	}

	res = monitor.NewResidency(nil, 8)
	out = machalg.ReclaimRaceDemo(0, machalg.HPUnsafe, res)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.UseAfterFree {
		t.Fatalf("unsafe row on plain TSO reported no use-after-free: %+v", out)
	}
	vs := res.Violations()
	for _, v := range vs {
		if v.Thread == 0 && v.Tick-v.Enq > 8 && strings.HasPrefix(v.Detail, "store [10]=1 ") &&
			strings.Contains(v.Event, " T0 commit [10]=1 ") {
			return
		}
	}
	t.Fatalf("late hazard publication not among the violations:\n%v", vs)
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
