package fuzz

import (
	"fmt"
	"time"

	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/tso"
)

// CheckpointKind is the artifact's "kind" field, following the
// self-identifying-JSON convention of the fuzz artifacts, the
// certificates, and the flight-recorder dumps.
const CheckpointKind = "fuzz-checkpoint"

// Checkpoint is a resumable snapshot of a fuzz campaign. The contract:
// every seed in [FirstSeed, NextSeed) has been fully checked, its
// report folded into the totals, and its mismatches either shrunk (in
// the artifact/shrink-step totals) or queued verbatim in Pending.
// Nothing beyond NextSeed has contributed anything. Because program
// checks are deterministic per (config, seed) and reports merge in
// seed order, resuming from NextSeed reproduces the uninterrupted
// campaign's report byte-for-byte — provided the configuration matches,
// which ConfigHash guards.
type Checkpoint struct {
	Kind       string `json:"kind"`
	ConfigHash string `json:"config_hash"`
	N          int    `json:"n"`
	FirstSeed  int64  `json:"first_seed"`
	// NextSeed is the resume cursor: the first seed not yet folded in.
	NextSeed int64 `json:"next_seed"`

	// Totals are folded over [FirstSeed, NextSeed).
	Totals

	// Coverage is the merged campaign coverage for [FirstSeed,
	// NextSeed). Because the snapshot is integer-only and merges in
	// seed order, a resumed campaign continues the counts
	// byte-identically to an uninterrupted run.
	Coverage *coverage.Snapshot `json:"coverage,omitempty"`

	// FlightEvents/FlightViolations are the campaign flight recorder's
	// running prefix totals (monitor.ShardedFlight.Totals) and
	// FlightViolating its retained violating groups
	// (monitor.ShardedFlight.Violating), restored on resume so the final
	// campaign flight dump reports whole-campaign totals and keeps the
	// violation evidence. The clean groups are NOT persisted — a resumed
	// dump is byte-identical once the resumed segment spans the
	// retention window.
	FlightEvents     uint64              `json:"flight_events,omitempty"`
	FlightViolations uint64              `json:"flight_violations,omitempty"`
	FlightViolating  []monitor.SeedGroup `json:"flight_violating,omitempty"`

	// Pending is the shrink queue: mismatches from folded seeds whose
	// shrinking had not finished when the checkpoint was written, in
	// seed order. A resumed campaign drains it before generating new
	// programs; a running one queues into it directly.
	Pending []Mismatch `json:"pending,omitempty"`
}

// Totals are a campaign's folded counts: the programs checked, machine
// runs sampled, explorations truncated and mismatches found, plus the
// shrink work and the artifacts it wrote. The first three are read from
// each folded report's coverage (Checkpoint.Fold), the account they are
// made in. They are the checkpoint's running totals, the tbtso-fuzz
// summary's and tbtso-obs's campaign totals, so one wire form serves
// all three.
type Totals struct {
	Programs    int      `json:"programs"`
	Runs        int      `json:"runs"`
	Truncated   int      `json:"truncated"`
	Mismatches  int      `json:"mismatches"`
	ShrinkSteps int      `json:"shrink_steps"`
	Artifacts   []string `json:"artifacts,omitempty"`
}

// Add folds o into t.
func (t *Totals) Add(o Totals) {
	t.Programs += o.Programs
	t.Runs += o.Runs
	t.Truncated += o.Truncated
	t.Mismatches += o.Mismatches
	t.ShrinkSteps += o.ShrinkSteps
	t.Artifacts = append(t.Artifacts, o.Artifacts...)
}

// Fold adds the next seed's report: it advances the cursor, merges the
// coverage, adds the program, run and truncation counts read from the
// report's coverage to the totals, and queues the mismatches for
// shrinking.
func (ck *Checkpoint) Fold(rep Report) {
	ck.NextSeed++
	if ck.Coverage == nil { // none until the first fold
		ck.Coverage = &coverage.Snapshot{}
	}
	cov := &rep.Coverage
	ck.Coverage.Merge(cov)
	ck.Add(Totals{Programs: int(cov.Programs), Runs: int(cov.Runs), Truncated: int(cov.MC.Truncated), Mismatches: len(rep.Mismatches)})
	ck.Pending = append(ck.Pending, rep.Mismatches...)
}

// Done reports whether the campaign finished: every seed folded and
// the shrink queue drained.
func (ck *Checkpoint) Done() bool {
	return ck.NextSeed == ck.FirstSeed+int64(ck.N) && len(ck.Pending) == 0
}

// campaignKey is the canonical form hashed into ConfigHash: every
// parameter that influences the campaign report, and nothing else.
// Workers is deliberately absent (the report is worker-count
// invariant, so a campaign may resume with different parallelism), as
// are Metrics/Flight (observers) and wall-clock budgets.
type campaignKey struct {
	Gen              GenConfig         `json:"gen"`
	Deltas           []int             `json:"deltas"`
	Policies         []tso.DrainPolicy `json:"policies"`
	MachSeeds        int               `json:"mach_seeds"`
	MaxStates        int               `json:"max_states"`
	CrossCheckStates int               `json:"cross_check_states"`
	N                int               `json:"n"`
	FirstSeed        int64             `json:"first_seed"`
	ShrinkMax        int               `json:"shrink_max"`
}

// CampaignHash fingerprints everything that determines the campaign
// report: the defaulted generator and sweep configuration, the program
// budget and seed origin, and the shrink budget. Two invocations with
// equal hashes produce byte-identical reports; a resume is refused when
// the hashes differ.
func (c Config) CampaignHash(n int, firstSeed int64, shrinkMax int) string {
	c = c.orDefault()
	key := campaignKey{
		Gen:              c.Gen,
		Deltas:           c.Deltas,
		Policies:         c.Policies,
		MachSeeds:        c.MachSeeds,
		MaxStates:        c.MaxStates,
		CrossCheckStates: c.CrossCheckStates,
		N:                n,
		FirstSeed:        firstSeed,
		ShrinkMax:        shrinkMax,
	}
	return obs.HashDoc(key)
}

// Validate checks a loaded checkpoint against the resuming campaign's
// configuration hash and internal consistency.
func (ck *Checkpoint) Validate(hash string) error {
	if ck.Kind != CheckpointKind {
		return fmt.Errorf("fuzz: checkpoint kind %q, want %q", ck.Kind, CheckpointKind)
	}
	if ck.ConfigHash != hash {
		return fmt.Errorf("fuzz: checkpoint was written by a different campaign configuration (checkpoint %s, resume %s); refusing to resume — the merged report would not match an uninterrupted run",
			ck.ConfigHash, hash)
	}
	if ck.NextSeed < ck.FirstSeed || ck.NextSeed > ck.FirstSeed+int64(ck.N) {
		return fmt.Errorf("fuzz: checkpoint cursor %d outside campaign seed range [%d, %d]",
			ck.NextSeed, ck.FirstSeed, ck.FirstSeed+int64(ck.N))
	}
	// Every fold advances the cursor by one program.
	if folded := ck.NextSeed - ck.FirstSeed; int64(ck.Programs) != folded {
		return fmt.Errorf("fuzz: checkpoint totals count %d programs but its cursor has folded %d", ck.Programs, folded)
	}
	if ck.Coverage != nil && ck.Coverage.Programs != uint64(ck.Programs) {
		return fmt.Errorf("fuzz: checkpoint coverage counts %d programs but its totals count %d", ck.Coverage.Programs, ck.Programs)
	}
	return nil
}

// WriteCheckpoint atomically persists the checkpoint (obs.WriteDoc) and
// returns the byte size written. With a registry it also records the
// write amplification: counters fuzz.campaign.checkpoints_written and
// fuzz.campaign.checkpoint_bytes, and the
// fuzz.campaign.checkpoint_write_ns latency histogram (~1µs to ~4s,
// exponential) — the data behind the ROADMAP "compact checkpoint
// encoding" decision.
func WriteCheckpoint(path string, ck *Checkpoint, reg *obs.Registry) (int, error) {
	start := time.Now()
	nb, err := obs.WriteDoc(path, ck)
	if err != nil || reg == nil {
		return nb, err
	}
	reg.Counter("fuzz.campaign.checkpoints_written").Add(1)
	reg.Counter("fuzz.campaign.checkpoint_bytes").Add(uint64(nb))
	reg.Histogram("fuzz.campaign.checkpoint_write_ns", obs.ExpBuckets(1024, 4, 12)).Observe(time.Since(start).Nanoseconds())
	return nb, nil
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint. It
// rejects documents of the wrong kind and pending mismatches with a
// malformed program or an unknown policy; configuration validation is
// the caller's job (Validate, with the resuming campaign's hash).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := obs.ReadDoc(path, CheckpointKind, &ck); err != nil {
		return nil, err
	}
	return &ck, nil
}
