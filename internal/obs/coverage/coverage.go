// Package coverage measures how much of the Δ-bounded behavior space a
// fuzz/mc campaign actually exercised. A Snapshot is a cheap, integer-
// only accumulator a single goroutine fills per program (Observe*
// methods are plain counter bumps — no locks, no atomics), and
// snapshots merge deterministically: every field is a sum, min, max, or
// set union, so folding per-program snapshots in seed order yields the
// same document for every worker count and across a checkpoint/resume
// split. Derived statistics (means, entropy) are computed at render
// time from the merged integers, never stored, so merging stays exact.
//
// The taxonomy (see docs/OBSERVABILITY.md, "Coverage"):
//
//   - OpMix: generated-op counts by kind — is the generator actually
//     exercising the vocabulary?
//   - Shapes: programs by "threads x total-ops" shape, with the
//     outcome-set cardinality distribution per shape (cardinality
//     entropy says whether a shape's explorations are degenerate).
//   - Cells: machine runs by (sweep Δ, drain policy, machine-seed
//     index) — the swept grid. A truncated exploration contributes no
//     cells, so cells measure *checked* coverage, not attempted.
//   - DrainMix: machine commits by drain cause, from the sampled runs'
//     tso.Stats — which drain mechanisms the campaign actually hit.
//   - MC: checker exploration totals, including how often each
//     reduction (POR, terminal collapse, dedup) fired.
package coverage

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
)

// Kind is the artifact "kind" field of a standalone coverage document,
// following the repo's self-identifying-JSON convention.
const Kind = "coverage"

// cardBuckets are the upper bounds of the outcome-set cardinality
// histogram per program shape: bucket i counts outcome sets with
// cardinality <= cardBuckets[i] (and > cardBuckets[i-1]); one overflow
// bucket counts the rest. Fixed so merged histograms are comparable
// across runs.
var cardBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128}

// NumCardBuckets is the length of ShapeStats.CardHist (the fixed
// cardinality buckets plus overflow).
const NumCardBuckets = 9

// ShapeStats is the per-program-shape coverage: how many programs had
// this shape and the distribution of checker outcome-set cardinalities
// observed at the sweep Δs. All fields are mergeable integers.
type ShapeStats struct {
	// Programs is how many generated programs had this shape.
	Programs uint64 `json:"programs"`
	// OutcomeSets is how many completed explorations contributed a
	// cardinality observation (one per (program, sweep Δ) that was
	// neither truncated nor errored).
	OutcomeSets uint64 `json:"outcome_sets"`
	// CardSum is the sum of observed cardinalities (mean = CardSum /
	// OutcomeSets, computed at render time).
	CardSum uint64 `json:"card_sum"`
	// CardMin/CardMax bound the observed cardinalities (0 = none yet;
	// a real cardinality is always >= 1).
	CardMin uint64 `json:"card_min"`
	CardMax uint64 `json:"card_max"`
	// CardHist is the cardinality histogram over the fixed buckets
	// {<=1, <=2, <=4, ... <=128, overflow}.
	CardHist [NumCardBuckets]uint64 `json:"card_hist"`
}

func (s *ShapeStats) observe(card uint64) {
	s.OutcomeSets++
	s.CardSum += card
	if s.CardMin == 0 || card < s.CardMin {
		s.CardMin = card
	}
	if card > s.CardMax {
		s.CardMax = card
	}
	i := 0
	for i < len(cardBuckets) && card > cardBuckets[i] {
		i++
	}
	s.CardHist[i]++
}

func (s *ShapeStats) merge(o *ShapeStats) {
	s.Programs += o.Programs
	s.OutcomeSets += o.OutcomeSets
	s.CardSum += o.CardSum
	if o.CardMin != 0 && (s.CardMin == 0 || o.CardMin < s.CardMin) {
		s.CardMin = o.CardMin
	}
	if o.CardMax > s.CardMax {
		s.CardMax = o.CardMax
	}
	for i := range s.CardHist {
		s.CardHist[i] += o.CardHist[i]
	}
}

// MeanCard returns the mean outcome-set cardinality (0 when empty).
func (s *ShapeStats) MeanCard() float64 {
	if s.OutcomeSets == 0 {
		return 0
	}
	return float64(s.CardSum) / float64(s.OutcomeSets)
}

// CardEntropy returns the Shannon entropy in bits of the cardinality
// bucket distribution — 0 means every exploration of this shape landed
// in one bucket (degenerate coverage), log2(9) ≈ 3.17 is the maximum.
// Derived from the merged integers, never stored.
func (s *ShapeStats) CardEntropy() float64 {
	if s.OutcomeSets == 0 {
		return 0
	}
	var h float64
	for _, c := range s.CardHist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(s.OutcomeSets)
		h -= p * math.Log2(p)
	}
	return h
}

// MCStats is the checker-side coverage: exploration totals and how
// often each reduction fired.
type MCStats struct {
	// Explorations that completed within the state budget.
	Explorations uint64 `json:"explorations"`
	// Truncated explorations (hit MaxStates; contributed nothing else).
	Truncated uint64 `json:"truncated"`
	// Totals across completed explorations.
	States            uint64 `json:"states"`
	Transitions       uint64 `json:"transitions"`
	DedupHits         uint64 `json:"dedup_hits"`
	PorPrunes         uint64 `json:"por_prunes"`
	TerminalCollapses uint64 `json:"terminal_collapses"`
	// Δ > 0 containment checks by how they were decided: by the sampled
	// run, replayed as a witness path at the covering Δ, or, after a
	// failed replay, by the covering exploration's outcome set.
	WitnessedChecks uint64 `json:"witnessed_checks,omitempty"`
	ExploredChecks  uint64 `json:"explored_checks,omitempty"`
	// ReplayFailed counts sampled runs whose witness replay failed, each
	// sending the check to the covering exploration.
	ReplayFailed uint64 `json:"replay_failed,omitempty"`
}

func (m *MCStats) merge(o MCStats) {
	m.Explorations += o.Explorations
	m.Truncated += o.Truncated
	m.States += o.States
	m.Transitions += o.Transitions
	m.DedupHits += o.DedupHits
	m.PorPrunes += o.PorPrunes
	m.TerminalCollapses += o.TerminalCollapses
	m.WitnessedChecks += o.WitnessedChecks
	m.ExploredChecks += o.ExploredChecks
	m.ReplayFailed += o.ReplayFailed
}

// Snapshot is the mergeable coverage document. The zero value is ready
// to use; maps allocate on first observation. Not safe for concurrent
// use — one goroutine observes, and campaigns publish merged copies at
// report boundaries (Clone).
type Snapshot struct {
	// Programs and Runs count the programs checked and the machine runs
	// sampled. They are the campaign's only account of both: the fuzz
	// report, the checkpoint totals and the fuzz.* counters read them
	// here.
	Programs uint64 `json:"programs"`
	Runs     uint64 `json:"runs"`
	// OpMix counts generated ops by kind ("store", "load", ...).
	OpMix map[string]uint64 `json:"op_mix,omitempty"`
	// Shapes maps "THREADSxOPS" (e.g. "2x5") to per-shape stats.
	Shapes map[string]*ShapeStats `json:"shapes,omitempty"`
	// Cells counts machine runs per swept (Δ, policy, machine-seed
	// index) cell, keyed "delta=D policy=P seed=I".
	Cells map[string]uint64 `json:"cells,omitempty"`
	// DrainMix counts machine commits by drain cause name.
	DrainMix map[string]uint64 `json:"drain_mix,omitempty"`
	// MC is the checker exploration coverage.
	MC MCStats `json:"mc"`
}

// CellKey renders the canonical Cells key for a swept cell. seedIdx is
// the machine-seed index within the sweep (0..MachSeeds-1), not the
// derived absolute seed, so cells are comparable across programs.
func CellKey(delta int, policy string, seedIdx int) string {
	return "delta=" + strconv.Itoa(delta) + " policy=" + policy + " seed=" + strconv.Itoa(seedIdx)
}

// ShapeKey renders the canonical Shapes key.
func ShapeKey(threads, totalOps int) string {
	return strconv.Itoa(threads) + "x" + strconv.Itoa(totalOps)
}

// ObserveProgram records one checked program: its shape and op mix.
// ops maps op-kind names to counts within the program.
func (s *Snapshot) ObserveProgram(threads, totalOps int, ops map[string]uint64) {
	s.Programs++
	for k, n := range ops {
		if n == 0 {
			continue
		}
		if s.OpMix == nil {
			s.OpMix = make(map[string]uint64)
		}
		s.OpMix[k] += n
	}
	s.shape(threads, totalOps).Programs++
}

func (s *Snapshot) shape(threads, totalOps int) *ShapeStats {
	if s.Shapes == nil {
		s.Shapes = make(map[string]*ShapeStats)
	}
	key := ShapeKey(threads, totalOps)
	sh := s.Shapes[key]
	if sh == nil {
		sh = &ShapeStats{}
		s.Shapes[key] = sh
	}
	return sh
}

// ObserveOutcomeSet records the cardinality of one completed
// exploration's outcome set for a program of the given shape.
func (s *Snapshot) ObserveOutcomeSet(threads, totalOps int, cardinality int) {
	s.shape(threads, totalOps).observe(uint64(cardinality))
}

// ObserveRun records one sampled machine run in its swept cell.
func (s *Snapshot) ObserveRun(delta int, policy string, seedIdx int) {
	s.Runs++
	if s.Cells == nil {
		s.Cells = make(map[string]uint64)
	}
	s.Cells[CellKey(delta, policy, seedIdx)]++
}

// ObserveDrain records n machine commits under the named drain cause.
func (s *Snapshot) ObserveDrain(cause string, n uint64) {
	if n == 0 {
		return
	}
	if s.DrainMix == nil {
		s.DrainMix = make(map[string]uint64)
	}
	s.DrainMix[cause] += n
}

// ObserveExploration records one completed checker exploration's
// totals.
func (s *Snapshot) ObserveExploration(states, transitions, dedupHits, porPrunes, terminalCollapses int) {
	s.MC.Explorations++
	s.MC.States += uint64(states)
	s.MC.Transitions += uint64(transitions)
	s.MC.DedupHits += uint64(dedupHits)
	s.MC.PorPrunes += uint64(porPrunes)
	s.MC.TerminalCollapses += uint64(terminalCollapses)
}

// ObserveTruncated records one exploration that hit the state budget.
func (s *Snapshot) ObserveTruncated() { s.MC.Truncated++ }

// ObserveCheck records one decided Δ > 0 containment check: witnessed
// by a replayed path, or looked up in the covering outcome set.
func (s *Snapshot) ObserveCheck(witnessed bool) {
	if witnessed {
		s.MC.WitnessedChecks++
	} else {
		s.MC.ExploredChecks++
	}
}

// Merge folds o into s. Merging is commutative and associative on the
// stored integers, so any fold order over the same per-program
// snapshots produces an identical document.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	s.Programs += o.Programs
	s.Runs += o.Runs
	for k, n := range o.OpMix {
		if s.OpMix == nil {
			s.OpMix = make(map[string]uint64)
		}
		s.OpMix[k] += n
	}
	for k, sh := range o.Shapes {
		if s.Shapes == nil {
			s.Shapes = make(map[string]*ShapeStats)
		}
		if mine := s.Shapes[k]; mine != nil {
			mine.merge(sh)
		} else {
			cp := *sh
			s.Shapes[k] = &cp
		}
	}
	for k, n := range o.Cells {
		if s.Cells == nil {
			s.Cells = make(map[string]uint64)
		}
		s.Cells[k] += n
	}
	for k, n := range o.DrainMix {
		if s.DrainMix == nil {
			s.DrainMix = make(map[string]uint64)
		}
		s.DrainMix[k] += n
	}
	s.MC.merge(o.MC)
}

// Clone returns a deep copy (for publishing a stable view while the
// original keeps accumulating).
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	var out Snapshot
	out.Merge(s)
	return &out
}

// Empty reports whether nothing has been observed.
func (s *Snapshot) Empty() bool {
	return s == nil || (s.Programs == 0 && s.Runs == 0 && s.MC.Explorations == 0 && s.MC.Truncated == 0)
}

// shapeView is ShapeStats plus the render-time derived statistics; the
// wire form of a shape inside MarshalJSON output.
type shapeView struct {
	ShapeStats
	MeanCard    float64 `json:"mean_card"`
	EntropyBits float64 `json:"entropy_bits"`
}

// snapshotJSON is the wire form: Snapshot with derived per-shape stats
// and a distinct-cell count. Encoding/json marshals string-keyed maps
// in sorted key order, so the rendering is deterministic and two equal
// snapshots marshal byte-identically.
type snapshotJSON struct {
	Kind          string               `json:"kind"`
	Programs      uint64               `json:"programs"`
	Runs          uint64               `json:"runs"`
	DistinctCells int                  `json:"distinct_cells"`
	OpMix         map[string]uint64    `json:"op_mix,omitempty"`
	Shapes        map[string]shapeView `json:"shapes,omitempty"`
	Cells         map[string]uint64    `json:"cells,omitempty"`
	DrainMix      map[string]uint64    `json:"drain_mix,omitempty"`
	MC            MCStats              `json:"mc"`
}

// MarshalJSON renders the snapshot with the derived statistics
// (distinct cells, per-shape mean cardinality and entropy) computed
// from the merged integers.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	doc := snapshotJSON{
		Kind:          Kind,
		Programs:      s.Programs,
		Runs:          s.Runs,
		DistinctCells: len(s.Cells),
		OpMix:         s.OpMix,
		Cells:         s.Cells,
		DrainMix:      s.DrainMix,
		MC:            s.MC,
	}
	if len(s.Shapes) > 0 {
		doc.Shapes = make(map[string]shapeView, len(s.Shapes))
		for k, sh := range s.Shapes {
			doc.Shapes[k] = shapeView{ShapeStats: *sh, MeanCard: sh.MeanCard(), EntropyBits: sh.CardEntropy()}
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON reads the counts back; the derived fields are ignored
// and recomputed on the next marshal, so a decode/encode round trip of
// a merged snapshot is byte-identical.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var doc snapshotJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*s = Snapshot{
		Programs: doc.Programs,
		Runs:     doc.Runs,
		OpMix:    doc.OpMix,
		Cells:    doc.Cells,
		DrainMix: doc.DrainMix,
		MC:       doc.MC,
	}
	if len(doc.Shapes) > 0 {
		s.Shapes = make(map[string]*ShapeStats, len(doc.Shapes))
		for k, sv := range doc.Shapes {
			sh := sv.ShapeStats
			s.Shapes[k] = &sh
		}
	}
	return nil
}

// SortedKeys returns m's keys sorted — the iteration order every
// deterministic renderer of a coverage map must use.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
