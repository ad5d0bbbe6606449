package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbtso/internal/obs"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/tso"
)

func testRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("machine.stores").Add(42)
	reg.Gauge("smr.HP.unreclaimed").Set(3)
	h := reg.Histogram("machine.commit_latency_ticks", obs.LinearBuckets(1, 1, 4))
	h.Observe(2)
	h.Observe(3)
	h.Observe(100) // overflow bucket
	return reg
}

func TestWritePrometheusExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, testRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tbtso_machine_stores_total counter",
		"tbtso_machine_stores_total 42",
		"# TYPE tbtso_smr_HP_unreclaimed gauge",
		"tbtso_smr_HP_unreclaimed 3",
		"# TYPE tbtso_machine_commit_latency_ticks histogram",
		`tbtso_machine_commit_latency_ticks_bucket{le="+Inf"} 3`,
		"tbtso_machine_commit_latency_ticks_sum 105",
		"tbtso_machine_commit_latency_ticks_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: le="3" counts the samples at 2 and 3.
	if !strings.Contains(out, `tbtso_machine_commit_latency_ticks_bucket{le="3"} 2`) {
		t.Errorf("bucket counts not cumulative:\n%s", out)
	}
}

func TestHandlers(t *testing.T) {
	reg := testRegistry()
	flight := monitor.NewShardedFlight(func() *monitor.Set {
		return monitor.NewSet(monitor.NewResidency(reg, 5))
	}, 0)
	srv := New(reg)
	srv.SetFlight(flight)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		resp := w.Result()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "tbtso_machine_stores_total 42") {
		t.Errorf("/metrics body:\n%s", body)
	}

	_, body = get("/metrics.json")
	var metrics []obs.Metric
	if err := json.Unmarshal([]byte(body), &metrics); err != nil || len(metrics) == 0 {
		t.Errorf("/metrics.json not a metric list (%v):\n%s", err, body)
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz clean = %d %q", resp.StatusCode, body)
	}

	// Trip the residency monitor, then health must flip to 503.
	rec := flight.Record(0)
	rec.BeginRun([]string{"w"}, 0)
	rec.Emit(tso.Event{Kind: tso.EvCommit, Thread: 0, Addr: 1, Val: 1, Enq: 0, Tick: 50})
	flight.Append(rec.Finish())
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"violations"`) {
		t.Errorf("/healthz tripped = %d %q", resp.StatusCode, body)
	}

	_, body = get("/violations")
	var vr struct {
		Violations []monitor.Violation `json:"violations"`
	}
	if err := json.Unmarshal([]byte(body), &vr); err != nil || len(vr.Violations) != 1 {
		t.Errorf("/violations (%v):\n%s", err, body)
	}

	_, body = get("/flightrecorder")
	doc, err := monitor.ReadCampaignFlightDump(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/flightrecorder not a flight dump: %v", err)
	}
	if doc.TotalViolations != 1 {
		t.Errorf("flight dump violations = %d, want 1", doc.TotalViolations)
	}

	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", resp.StatusCode)
	}
}

func TestFlightRecorderHandlerWithoutRecorder(t *testing.T) {
	srv := New(obs.NewRegistry())
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/flightrecorder", nil))
	if w.Result().StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Result().StatusCode)
	}
}

func TestParseMonitors(t *testing.T) {
	reg := obs.NewRegistry()
	set, err := ParseMonitors("residency=40, drain,smr", reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.Monitors()); got != 3 {
		t.Fatalf("parsed %d monitors, want 3", got)
	}
	if set2, err := ParseMonitors("all", reg); err != nil || len(set2.Monitors()) != 3 {
		t.Fatalf("all: %v, %d monitors", err, len(set2.Monitors()))
	}
	for _, bad := range []string{"bogus", "residency=x", "all=3"} {
		if _, err := ParseMonitors(bad, obs.NewRegistry()); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestOptionsStartRoundTrip runs the full session lifecycle over a real
// listener: flags → session → monitored machine run → live scrape →
// FinishContext with a flight artifact.
func TestOptionsStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Listen: "127.0.0.1:0", Monitors: "residency=5,drain", FlightDir: dir}
	sess, err := opts.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Addr == "" || sess.Flight == nil {
		t.Fatalf("session incomplete: addr=%q flight=%v", sess.Addr, sess.Flight)
	}

	// Feed a violating commit through one recorded group.
	rec := sess.Flight.Record(0)
	rec.BeginRun([]string{"w"}, 0)
	rec.Emit(tso.Event{Kind: tso.EvStore, Thread: 0, Addr: 1, Val: 1, Tick: 1})
	rec.Emit(tso.Event{Kind: tso.EvCommit, Thread: 0, Addr: 1, Val: 1, Enq: 1, Tick: 40})
	sess.Flight.Append(rec.Finish())

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + sess.Addr + "/metrics")
	if err != nil {
		t.Fatalf("live scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "tbtso_monitor_residency_violations_total 1") {
		t.Errorf("scrape missing violation counter:\n%s", body)
	}

	var report bytes.Buffer
	n := sess.FinishContext(context.Background(), &report, "roundtrip")
	if n != 1 {
		t.Fatalf("Finish reported %d violations, want 1", n)
	}
	if !strings.Contains(report.String(), "flight-recorder artifact:") {
		t.Fatalf("Finish did not write the artifact:\n%s", report.String())
	}
	// Endpoint must be down after Finish.
	if _, err := client.Get("http://" + sess.Addr + "/healthz"); err == nil {
		t.Error("endpoint still serving after Finish")
	}
}

// TestDumpFlightSkipsViolationDump: a flight the command already dumped
// under its own name (tbtso-fuzz's campaign artifact) is not dumped a
// second time by FinishContext, though its violations are still reported.
func TestDumpFlightSkipsViolationDump(t *testing.T) {
	dir := t.TempDir()
	sess, err := Options{Monitors: "residency=5", FlightDir: dir}.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sess.Flight.Record(0)
	rec.BeginRun([]string{"w"}, 0)
	rec.Emit(tso.Event{Kind: tso.EvCommit, Thread: 0, Addr: 1, Val: 1, Enq: 1, Tick: 40})
	sess.Flight.Append(rec.Finish())

	path, err := sess.DumpFlight("cmd.campaign")
	if err != nil || path != filepath.Join(dir, "cmd.campaign.flight.json") {
		t.Fatalf("DumpFlight = %q, %v", path, err)
	}
	var report bytes.Buffer
	if n := sess.FinishContext(context.Background(), &report, "cmd"); n != 1 {
		t.Fatalf("Finish reported %d violations, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "cmd.flight.json")); !os.IsNotExist(err) {
		t.Errorf("Finish dumped the flight a second time: %v", err)
	}
}

// TestInertSession: zero Options must yield a no-op session so every
// CLI can call Start/FinishContext unconditionally.
func TestInertSession(t *testing.T) {
	sess, err := Options{}.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Flight != nil || sess.Addr != "" {
		t.Fatalf("inert session not inert: %+v", sess)
	}
	var buf bytes.Buffer
	if n := sess.FinishContext(context.Background(), &buf, "x"); n != 0 || buf.Len() != 0 {
		t.Fatalf("inert Finish: n=%d out=%q", n, buf.String())
	}
}

// TestFinishContextCancellableLinger: a signal arriving during the
// linger window must cut it short and still stop the server — the
// window used to be an uninterruptible time.Sleep.
func TestFinishContextCancellableLinger(t *testing.T) {
	sess, err := Options{Listen: "127.0.0.1:0", Linger: time.Hour}.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan int, 1)
	var report bytes.Buffer
	go func() { finished <- sess.FinishContext(ctx, &report, "linger") }()

	select {
	case <-finished:
		t.Fatal("FinishContext returned before the linger was cancelled")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled linger did not unblock FinishContext")
	}
	if !strings.Contains(report.String(), "linger interrupted") {
		t.Errorf("no linger-interrupted note:\n%s", report.String())
	}
	client := http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + sess.Addr + "/healthz"); err == nil {
		t.Error("endpoint still serving after interrupted linger")
	}
}

// TestFinishContextInterruptDump: an interrupted session with a flight
// dir must leave a post-mortem artifact even when no monitor tripped,
// and must skip the linger entirely.
func TestFinishContextInterruptDump(t *testing.T) {
	dir := t.TempDir()
	sess, err := Options{Monitors: "residency=1000", FlightDir: dir, Linger: time.Hour}.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sess.Flight.Record(0)
	rec.BeginRun([]string{"w"}, 0)
	rec.Emit(tso.Event{Kind: tso.EvStore, Thread: 0, Addr: 1, Val: 1, Tick: 1})
	sess.Flight.Append(rec.Finish())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var report bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- sess.FinishContext(ctx, &report, "campaign") }()
	var n int
	select {
	case n = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("FinishContext lingered despite a cancelled context")
	}
	if n != 0 {
		t.Fatalf("FinishContext reported %d violations, want 0", n)
	}
	// No violation → no regular artifact; interruption → post-mortem one.
	if _, err := os.Stat(filepath.Join(dir, "campaign.flight.json")); !os.IsNotExist(err) {
		t.Errorf("violation artifact written without a violation: %v", err)
	}
	path := filepath.Join(dir, "campaign.interrupt.flight.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no interrupt post-mortem artifact: %v", err)
	}
	defer f.Close()
	dump, err := monitor.ReadCampaignFlightDump(f)
	if err != nil {
		t.Fatalf("interrupt artifact unreadable: %v", err)
	}
	if dump.TotalEvents != 1 || dump.TotalViolations != 0 {
		t.Errorf("interrupt artifact: events=%d violations=%d, want 1/0",
			dump.TotalEvents, dump.TotalViolations)
	}
}
