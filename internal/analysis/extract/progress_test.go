package extract

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"tbtso/internal/mc"
	"tbtso/internal/obs"
)

// TestCertifyCtxResume: interrupt a sweep, persist the completed cells,
// resume from them — the resumed run must reuse every recorded cell and
// produce the same certificate as an uninterrupted run.
func TestCertifyCtxResume(t *testing.T) {
	ex := Extract(load(t, "internal/smr"))
	p := pairByName(t, ex, "ffhp")
	opt := Options{MachSeeds: 4}

	full, fullDone, err := CertifyCtx(nil, p, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullDone) != opt.withDefaults().MaxDelta+1 {
		t.Fatalf("complete sweep recorded %d cells, want %d", len(fullDone), opt.withDefaults().MaxDelta+1)
	}

	// Pre-cancelled: no cells run, partial progress is empty, error is
	// typed.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	rep, done, err := CertifyCtx(gone, p, opt, nil)
	if rep != nil || len(done) != 0 {
		t.Fatalf("pre-cancelled CertifyCtx did work: rep=%v cells=%d", rep, len(done))
	}
	if !errors.Is(err, mc.ErrInterrupted) {
		t.Fatalf("pre-cancelled CertifyCtx: err=%v, want ErrInterrupted", err)
	}

	// Prior cells short-circuit exploration: with the full sweep as
	// prior, even a cancelled context certifies (nothing left to run),
	// and the certificate matches the uninterrupted one.
	rep2, done2, err := CertifyCtx(gone, p, opt, fullDone)
	if err != nil {
		t.Fatalf("resume with complete prior: %v", err)
	}
	if !reflect.DeepEqual(done2, fullDone) {
		t.Error("resume mutated the recorded cells")
	}
	if !reflect.DeepEqual(rep2.Cert, full.Cert) {
		t.Errorf("resumed certificate differs from uninterrupted:\n got %+v\nwant %+v", rep2.Cert, full.Cert)
	}

	// Partial prior: the missing suffix is recomputed and the verdict
	// still matches.
	rep3, done3, err := CertifyCtx(nil, p, opt, fullDone[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(done3, fullDone) || !reflect.DeepEqual(rep3.Cert, full.Cert) {
		t.Error("partial-prior resume diverged from the uninterrupted run")
	}

	// A corrupt prior (cells shifted) is detected, not trusted.
	bad := []SweepPoint{fullDone[1]}
	if _, _, err := CertifyCtx(nil, p, opt, bad); err == nil {
		t.Error("CertifyCtx accepted a Δ-shifted prior")
	}
}

// TestSweepProgressRoundTrip: the progress document survives disk,
// refuses foreign options, and drops stale pair fingerprints.
func TestSweepProgressRoundTrip(t *testing.T) {
	ex := Extract(load(t, "internal/smr"))
	p := pairByName(t, ex, "ffhp")
	opt := Options{MachSeeds: 4}

	_, done, err := CertifyCtx(nil, p, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSweepProgress(opt)
	sp.Record(p, done[:2])
	path := filepath.Join(t.TempDir(), "verify.progress")
	if _, err := obs.WriteDoc(path, sp); err != nil {
		t.Fatal(err)
	}

	back, err := ReadSweepProgress(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Lookup(p); !reflect.DeepEqual(got, done[:2]) {
		t.Errorf("Lookup after round trip: %+v, want the recorded prefix", got)
	}

	// Different sweep options must refuse the document outright.
	if _, err := ReadSweepProgress(path, Options{MaxDelta: 2}); err == nil {
		t.Error("ReadSweepProgress accepted a document from different options")
	}

	// A changed pair (different fingerprint) must miss, not match.
	other := pairByName(t, ex, "ffhp")
	alias := *other
	alias.ExpectFail = !alias.ExpectFail
	if back.Lookup(&alias) != nil {
		t.Error("Lookup returned cells for a pair whose content changed")
	}
}
