package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
)

func coverageFixture() *coverage.Snapshot {
	var s coverage.Snapshot
	s.ObserveProgram(2, 4, map[string]uint64{"store": 2, "load": 1})
	s.ObserveProgram(2, 4, map[string]uint64{"store": 2, "load": 1})
	s.ObserveRun(1, "eager", 0)
	s.ObserveRun(1, "eager", 0)
	s.ObserveRun(3, "random", 1)
	s.ObserveOutcomeSet(2, 4, 3)
	s.ObserveDrain("fence", 2)
	s.ObserveExploration(120, 340, 11, 5, 2)
	return &s
}

func TestWritePrometheusCoverage(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheusCoverage(&buf, coverageFixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{
		"tbtso_coverage_programs_total 2",
		"tbtso_coverage_runs_total 3",
		"tbtso_coverage_cells 2",
		`tbtso_coverage_ops_total{op="load"} 2`,
		`tbtso_coverage_ops_total{op="store"} 4`,
		`tbtso_coverage_cell_runs_total{delta="1",policy="eager",seed="0"} 2`,
		`tbtso_coverage_drains_total{cause="fence"} 2`,
		`tbtso_coverage_shape_programs_total{shape="2x4"} 2`,
		"tbtso_coverage_mc_states_total 120",
		"tbtso_coverage_mc_por_prunes_total 5",
		"tbtso_coverage_mc_terminal_collapses_total 2",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("scrape lacks %q:\n%s", w, out)
		}
	}
	// Two scrapes of the same snapshot are byte-identical.
	var again bytes.Buffer
	WritePrometheusCoverage(&again, coverageFixture())
	if out != again.String() {
		t.Error("coverage scrape is not deterministic")
	}
}

func TestCoverageHandler(t *testing.T) {
	srv := New(obs.NewRegistry())
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/coverage", nil))
	if w.Code != 404 {
		t.Fatalf("/coverage without a source: %d, want 404", w.Code)
	}

	snap := coverageFixture()
	srv.SetCoverage(func() *coverage.Snapshot { return snap })
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/coverage", nil))
	if w.Code != 200 {
		t.Fatalf("/coverage: %d", w.Code)
	}
	var got coverage.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("/coverage does not parse: %v", err)
	}
	if got.Runs != snap.Runs || got.MC.States != snap.MC.States {
		t.Errorf("round trip lost counts: %+v", got)
	}

	// The Prometheus scrape appends the coverage series.
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(w.Body.String(), "tbtso_coverage_programs_total") {
		t.Error("/metrics lacks the coverage series")
	}
}

// TestConcurrentScrapesDuringCampaign drives a real multi-worker fuzz
// campaign — per-seed flight recording, per-batch coverage publication —
// while hammering every ops endpoint from parallel scrapers. Run under
// -race (make race) this pins the synchronization story: the scrape
// path never touches a worker's recorder, only the published clone and
// the mutex-guarded seed-ordered store.
func TestConcurrentScrapesDuringCampaign(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(reg)
	var published atomic.Pointer[coverage.Snapshot]
	srv.SetCoverage(published.Load)
	flight := monitor.NewShardedFlight(func() *monitor.Residency {
		return monitor.NewResidency(reg, 0)
	}, monitor.DefaultFlightSeeds)
	srv.SetFlight(flight)

	cfg := fuzz.Config{
		Deltas:           []int{0, 1},
		MachSeeds:        1,
		MaxStates:        40_000,
		CrossCheckStates: -1,
		Workers:          4,
		Flight:           flight,
	}

	flight.Begin(0)
	done := make(chan struct{})
	var cov coverage.Snapshot
	go func() {
		defer close(done)
		seed := int64(0)
		for batch := 0; batch < 5; batch++ {
			rep, d, err := fuzz.RunContext(nil, cfg, 8, seed)
			if err != nil {
				t.Errorf("batch %d: %v", batch, err)
				return
			}
			seed += int64(d)
			rep.Publish(reg)
			cov.Merge(&rep.Coverage)
			published.Store(cov.Clone())
		}
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/coverage", "/flightrecorder", "/violations", "/healthz"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", p, nil))
				if p == "/flightrecorder" && w.Code != 200 {
					t.Errorf("%s mid-campaign: %d", p, w.Code)
					return
				}
			}
		}(path)
	}
	<-done
	wg.Wait()

	// After the campaign, /coverage serves exactly the merged snapshot.
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/coverage", nil))
	wantJSON, err := json.Marshal(&cov)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(w.Body.String()) == "" {
		t.Fatal("/coverage empty after campaign")
	}
	var got coverage.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(&got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("/coverage diverged from the campaign's merged snapshot:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if got.Programs != 40 {
		t.Errorf("campaign covered %d programs, want 40", got.Programs)
	}
	// The final flight dump covers the full prefix.
	var buf bytes.Buffer
	if err := flight.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := monitor.ReadCampaignFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.NextSeed != 40 || doc.TotalEvents == 0 {
		t.Errorf("flight dump incomplete: next_seed=%d events=%d", doc.NextSeed, doc.TotalEvents)
	}
}
