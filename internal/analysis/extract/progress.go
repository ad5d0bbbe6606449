package extract

import (
	"fmt"

	"tbtso/internal/mc"
	"tbtso/internal/obs"
)

// SweepProgressKind is the progress artifact's "kind" field.
const SweepProgressKind = "verify-progress"

// SweepProgress records, per pair, the (pair, Δ) sweep cells an
// interrupted certification run completed, so a resumed run
// re-certifies only the unfinished cells. It is keyed twice: the
// document-level OptionsHash binds the sweep shape and state budget,
// and each pair's Fingerprint binds the extracted program and property
// — progress for a pair whose source (and hence program) changed since
// the interruption is silently discarded rather than trusted.
type SweepProgress struct {
	Kind        string                  `json:"kind"`
	OptionsHash string                  `json:"options_hash"`
	Pairs       map[string]PairProgress `json:"pairs"`
}

// PairProgress is one pair's completed prefix of the sweep: Points[i]
// is the cell at Δ=i (index 0 is the plain-TSO leg).
type PairProgress struct {
	Fingerprint string       `json:"fingerprint"`
	Points      []SweepPoint `json:"points"`
}

// NewSweepProgress returns an empty progress document for opt.
func NewSweepProgress(opt Options) *SweepProgress {
	return &SweepProgress{
		Kind:        SweepProgressKind,
		OptionsHash: opt.ProgressHash(),
		Pairs:       map[string]PairProgress{},
	}
}

// ProgressHash fingerprints the options that determine sweep-point
// content: the sweep shape and the exploration budget. MachSeeds is
// excluded: it only drives the post-sweep machine-witness search, which
// never resumes partially.
func (o Options) ProgressHash() string {
	o = o.withDefaults()
	return obs.HashDoc(struct {
		MaxDelta  int `json:"max_delta"`
		MaxStates int `json:"max_states"`
	}{o.MaxDelta, o.MaxStates})
}

// Fingerprint identifies the pair content a sweep ran against: the
// property and the instantiated program (wait=1 instantiation; the
// other waits are derived from it and Δ).
func Fingerprint(p *Pair) string {
	return obs.HashDoc(struct {
		Property []string   `json:"property"`
		Program  mc.Program `json:"program"`
		Expect   bool       `json:"expect_fail"`
	}{p.PropertyStrings(), p.Instantiate(1), p.ExpectFail})
}

// Record stores a pair's completed sweep prefix.
func (sp *SweepProgress) Record(p *Pair, points []SweepPoint) {
	if len(points) == 0 {
		return
	}
	sp.Pairs[p.Name] = PairProgress{Fingerprint: Fingerprint(p), Points: points}
}

// Lookup returns the completed sweep prefix recorded for the pair, or
// nil when none was recorded or the pair's content has changed since.
func (sp *SweepProgress) Lookup(p *Pair) []SweepPoint {
	pp, ok := sp.Pairs[p.Name]
	if !ok || pp.Fingerprint != Fingerprint(p) {
		return nil
	}
	return pp.Points
}

// ReadSweepProgress loads a progress document for a resume under opt.
// A document written under different sweep options is refused — its
// cells would not match the resumed sweep's. The progress is written
// with obs.WriteDoc.
func ReadSweepProgress(path string, opt Options) (*SweepProgress, error) {
	var sp SweepProgress
	if err := obs.ReadDoc(path, SweepProgressKind, &sp); err != nil {
		return nil, err
	}
	if want := opt.ProgressHash(); sp.OptionsHash != want {
		return nil, fmt.Errorf("extract: sweep progress %s was written under different options (progress %s, resume %s); refusing to reuse its cells",
			path, sp.OptionsHash, want)
	}
	if sp.Pairs == nil {
		sp.Pairs = map[string]PairProgress{}
	}
	return &sp, nil
}
