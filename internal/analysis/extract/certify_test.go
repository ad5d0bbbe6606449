package extract

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
)

// TestCertifyRealPairs runs the full certification of the real
// protocol pairs — the same verdicts tbtso-verify checks against the
// committed certificates in certs/.
func TestCertifyRealPairs(t *testing.T) {
	ex := Extract(load(t, "internal/smr", "internal/lock", "internal/machalg"))
	want := map[string]string{
		"ffhp":      StatusCertified,
		"ffbl":      StatusCertified,
		"ffbl-mach": StatusCertified,
		"ffbl-tso":  StatusRefuted,
	}
	for name, status := range want {
		p := pairByName(t, ex, name)
		rep, err := Certify(nil, p, Options{MachSeeds: 8})
		if err != nil {
			t.Errorf("certify %s: %v", name, err)
			continue
		}
		c := rep.Cert
		if c.Status != status {
			t.Errorf("pair %s: status %s, want %s", name, c.Status, status)
		}
		if !rep.Ok() {
			t.Errorf("pair %s: verdict does not match expectation", name)
		}
		if status == StatusCertified {
			if c.CertifiedDelta != 1 {
				t.Errorf("pair %s: certified at Δ=%d, want 1 (TBTSO[1] is nearly SC)", name, c.CertifiedDelta)
			}
			if c.TSO.Holds {
				t.Errorf("pair %s: property holds on plain TSO; certificate would be vacuous", name)
			}
			for _, pt := range c.Sweep {
				if !pt.Holds {
					t.Errorf("pair %s: violated at swept Δ=%d", name, pt.Delta)
				}
				if pt.Wait != pt.Delta+1 {
					t.Errorf("pair %s: Δ=%d instantiated wait=%d, want Δ+1", name, pt.Delta, pt.Wait)
				}
			}
		}
		if status == StatusRefuted {
			if rep.Cex == nil {
				t.Fatalf("pair %s: refuted without a counterexample", name)
			}
			if rep.Cex.Outcome == "" || !p.Forbidden(rep.Cex.Outcome) {
				t.Errorf("pair %s: counterexample outcome %q is not forbidden", name, rep.Cex.Outcome)
			}
			if err := rep.Cex.Replay(p, Options{}); err != nil {
				t.Errorf("pair %s: counterexample does not replay: %v", name, err)
			}
		}
	}
}

// TestCertifyInterrupted: a sweep whose context is already cancelled
// explores nothing and returns no report, with a typed error.
func TestCertifyInterrupted(t *testing.T) {
	ex := Extract(load(t, "internal/smr"))
	p := pairByName(t, ex, "ffhp")
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Certify(gone, p, Options{MachSeeds: 4})
	if rep != nil {
		t.Fatalf("pre-cancelled Certify returned a report: %+v", rep)
	}
	if !errors.Is(err, mc.ErrInterrupted) {
		t.Fatalf("pre-cancelled Certify: err=%v, want ErrInterrupted", err)
	}
}

// TestCertifySymmetry asserts that the replicated-reader pair really
// explores more than one reader thread and reports the symmetry
// reduction.
func TestCertifySymmetry(t *testing.T) {
	ex := Extract(load(t, "internal/machalg"))
	p := pairByName(t, ex, "ffbl-mach")
	if p.Copies != 2 || p.Threads() != 3 {
		t.Fatalf("ffbl-mach: copies=%d threads=%d, want 2/3", p.Copies, p.Threads())
	}
	rep, err := Certify(nil, p, Options{MachSeeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rep.Cert.Reductions {
		if r == "symmetry" {
			found = true
		}
	}
	if !found {
		t.Errorf("reductions %v missing symmetry", rep.Cert.Reductions)
	}
}

// TestCertifyTestdataPairs checks the full verdict spectrum on the
// self-contained testdata pairs: adequate wait certifies, the
// //tbtso:shared variant certifies, the planted short wait decertifies
// once the sweep climbs past the program length, and the no-wait
// negative control is refuted at Δ=0.
func TestCertifyTestdataPairs(t *testing.T) {
	ex := Extract(load(t, "internal/analysis/extract/testdata/src/pairs"))

	for _, name := range []string{"sb", "sb-shared"} {
		rep, err := Certify(nil, pairByName(t, ex, name), Options{MachSeeds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cert.Status != StatusCertified {
			t.Errorf("pair %s: status %s, want certified", name, rep.Cert.Status)
		}
	}

	short := pairByName(t, ex, "sb-shortwait")
	rep, err := Certify(nil, short, Options{MaxDelta: 10, MachSeeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert.Status != StatusDecertified {
		t.Fatalf("sb-shortwait: status %s, want decertified (fixed wait=1 must fail at large Δ)", rep.Cert.Status)
	}
	if rep.Cex == nil {
		t.Fatal("sb-shortwait: decertified without a counterexample")
	}
	if rep.Cex.Delta <= 1 {
		t.Errorf("sb-shortwait: counterexample at Δ=%d; the planted wait=1 should survive small bounds", rep.Cex.Delta)
	}
	if err := rep.Cex.Replay(short, Options{}); err != nil {
		t.Errorf("sb-shortwait: counterexample does not replay: %v", err)
	}
	// Small bounds must still hold: the short wait is adequate there.
	if !rep.Cert.Sweep[0].Holds {
		t.Errorf("sb-shortwait: violated already at Δ=1; expected only large Δ to fail")
	}

	tso := pairByName(t, ex, "sb-tso")
	rep, err = Certify(nil, tso, Options{MachSeeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert.Status != StatusRefuted {
		t.Errorf("sb-tso: status %s, want refuted", rep.Cert.Status)
	}
}

// TestCounterexampleRoundTrip pins the JSON round-trip and the
// Perfetto trace emission for a machine-witnessed counterexample.
func TestCounterexampleRoundTrip(t *testing.T) {
	ex := Extract(load(t, "internal/analysis/extract/testdata/src/pairs"))
	p := pairByName(t, ex, "sb-tso")
	rep, err := Certify(nil, p, Options{MachSeeds: 32})
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Cex
	if cex == nil {
		t.Fatal("no counterexample")
	}
	data, err := json.Marshal(cex)
	if err != nil {
		t.Fatal(err)
	}
	var back Counterexample
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Replay(p, Options{}); err != nil {
		t.Errorf("round-tripped counterexample does not replay: %v", err)
	}
	if cex.Schedule == nil {
		t.Skip("no machine witness found; trace not applicable")
	}
	named := []byte(`"policy":"` + cex.Policy.String() + `"`)
	bad := bytes.Replace(data, named, []byte(`"policy":"no-such-policy"`), 1)
	if err := json.Unmarshal(bad, &back); err == nil || !strings.Contains(err.Error(), `"no-such-policy"`) {
		t.Errorf("counterexample with an unknown policy decoded (error %v)", err)
	}
	var buf bytes.Buffer
	if err := cex.PerfettoTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace map[string]any
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(buf.Bytes()) == 0 {
		t.Error("empty trace")
	}
}

// TestParseCounterexample: the committed counterexample parses, and
// JSON documents that are not counterexamples — the committed
// certificate, a fuzz checkpoint, a counterexample with its pair,
// kind or outcome emptied or its kind changed — are refused, each
// with the reason named.
func TestParseCounterexample(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile("../../../certs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cexDoc := read("ffbl-tso.cex.json")
	cex, err := ParseCounterexample(cexDoc)
	if err != nil || cex.Pair != "ffbl-tso" || cex.Kind != kindPlantedTSO || cex.Outcome == "" {
		t.Fatalf("committed counterexample: %+v, %v", cex, err)
	}
	edit := func(field, value string) []byte {
		var doc map[string]any
		if err := json.Unmarshal(cexDoc, &doc); err != nil {
			t.Fatal(err)
		}
		doc[field] = value
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ckpt, err := json.Marshal(fuzz.Checkpoint{Kind: fuzz.CheckpointKind, N: 125, FirstSeed: 1, NextSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	refused := map[string]struct {
		doc    []byte
		reason string
	}{
		"certificate":   {read("ffhp.json"), `kind ""`},
		"checkpoint":    {ckpt, "no pair"},
		"empty pair":    {edit("pair", ""), "no pair"},
		"empty kind":    {edit("kind", ""), `kind ""`},
		"other kind":    {edit("kind", "certified"), `kind "certified"`},
		"empty outcome": {edit("outcome", ""), "no outcome"},
	}
	for name, c := range refused {
		_, err := ParseCounterexample(c.doc)
		if err == nil || !strings.Contains(err.Error(), "not a counterexample: "+c.reason) {
			t.Errorf("%s: error %v, want one naming %q", name, err, c.reason)
		}
	}
	if _, err := ParseCounterexample(edit("kind", kindDecertified)); err != nil {
		t.Errorf("a %s counterexample is refused: %v", kindDecertified, err)
	}
}

// TestSuggestFences asserts the search recovers exactly the fence the
// fence-free algorithms deleted: on the no-wait SB square, the minimal
// single insertion is the writer-side fence between its store and its
// validating load.
func TestSuggestFences(t *testing.T) {
	ex := Extract(load(t, "internal/analysis/extract/testdata/src/pairs"))
	p := pairByName(t, ex, "sb-tso")
	sugs, err := SuggestFences(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions; expected the writer-side fence")
	}
	for _, s := range sugs {
		if len(s.Fences) != 1 {
			t.Errorf("suggestion %+v is not minimal (single insertion expected)", s)
		}
	}
	found := false
	for _, s := range sugs {
		f := s.Fences[0]
		if f.Role == RoleWriter && f.Index == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("suggestions %+v do not include the writer fence before its validating load", sugs)
	}

	// The certified pair is also violated on plain TSO (that is its
	// non-vacuity), so the search applies there too and recovers the
	// same deleted writer-side fence.
	sugs, err = SuggestFences(pairByName(t, ex, "sb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, s := range sugs {
		if len(s.Fences) == 1 && s.Fences[0].Role == RoleWriter && s.Fences[0].Index == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("suggestions %+v for sb do not include the writer fence", sugs)
	}
}
