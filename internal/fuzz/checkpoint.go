package fuzz

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
)

// CheckpointKind is the artifact's "kind" field, following the
// self-identifying-JSON convention of the fuzz artifacts, the
// certificates, and the flight-recorder dumps.
const CheckpointKind = "fuzz-checkpoint"

// MismatchJSON is Mismatch in a stable wire form, so an interrupted
// campaign's not-yet-shrunk findings survive in the checkpoint's
// shrink queue.
type MismatchJSON struct {
	Kind     string      `json:"kind"`
	Seed     int64       `json:"seed"`
	Delta    int         `json:"delta"`
	Cover    int         `json:"cover,omitempty"`
	Policy   string      `json:"policy,omitempty"`
	MachSeed int64       `json:"mach_seed,omitempty"`
	Outcome  string      `json:"outcome,omitempty"`
	Detail   string      `json:"detail,omitempty"`
	Program  ProgramJSON `json:"program"`
}

// EncodeMismatch converts to the wire form. Engine-divergence
// mismatches carry no machine run; their Policy encodes as "".
func EncodeMismatch(m Mismatch) MismatchJSON {
	mj := MismatchJSON{
		Kind: m.Kind, Seed: m.Seed, Delta: m.Delta, Cover: m.Cover,
		MachSeed: m.MachSeed, Outcome: m.Outcome, Detail: m.Detail,
		Program: EncodeProgram(m.Program),
	}
	if m.Kind == KindSampledOutcome || m.Kind == KindMachineError {
		mj.Policy = m.Policy.String()
	}
	return mj
}

// DecodeMismatch converts back from the wire form.
func DecodeMismatch(mj MismatchJSON) (Mismatch, error) {
	p, err := DecodeProgram(mj.Program)
	if err != nil {
		return Mismatch{}, err
	}
	m := Mismatch{
		Kind: mj.Kind, Seed: mj.Seed, Delta: mj.Delta, Cover: mj.Cover,
		MachSeed: mj.MachSeed, Outcome: mj.Outcome, Detail: mj.Detail,
		Program: p,
	}
	if mj.Policy != "" {
		pol, err := ParsePolicy(mj.Policy)
		if err != nil {
			return Mismatch{}, err
		}
		m.Policy = pol
	}
	return m, nil
}

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

	// Folded totals for [FirstSeed, NextSeed).
	Programs    int      `json:"programs"`
	Runs        int      `json:"runs"`
	Truncated   int      `json:"truncated"`
	Mismatches  int      `json:"mismatches"`
	ShrinkSteps int      `json:"shrink_steps"`
	Artifacts   []string `json:"artifacts,omitempty"`

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
	// programs.
	Pending []MismatchJSON `json:"pending,omitempty"`
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
	Gen              GenConfig `json:"gen"`
	Deltas           []int     `json:"deltas"`
	Policies         []string  `json:"policies"`
	MachSeeds        int       `json:"mach_seeds"`
	MaxStates        int       `json:"max_states"`
	CrossCheckStates int       `json:"cross_check_states"`
	N                int       `json:"n"`
	FirstSeed        int64     `json:"first_seed"`
	ShrinkMax        int       `json:"shrink_max"`
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
		MachSeeds:        c.MachSeeds,
		MaxStates:        c.MaxStates,
		CrossCheckStates: c.CrossCheckStates,
		N:                n,
		FirstSeed:        firstSeed,
		ShrinkMax:        shrinkMax,
	}
	for _, p := range c.Policies {
		key.Policies = append(key.Policies, p.String())
	}
	blob, err := json.Marshal(key)
	if err != nil {
		// campaignKey is plain data; Marshal cannot fail on it.
		panic("fuzz: marshaling campaign key: " + err.Error())
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(blob))
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
	for i, mj := range ck.Pending {
		if _, err := DecodeMismatch(mj); err != nil {
			return fmt.Errorf("fuzz: checkpoint pending[%d]: %w", i, err)
		}
	}
	return nil
}

// WriteCheckpoint atomically persists the checkpoint (temp file +
// rename, so an interruption mid-write can never leave a torn
// checkpoint behind) and returns the byte size written.
func WriteCheckpoint(path string, ck *Checkpoint) (int, error) {
	blob, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return 0, err
	}
	blob = append(blob, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return len(blob), nil
}

// CheckpointWriteBuckets are the fuzz.campaign.checkpoint_write_ns
// histogram's bounds: ~1µs to ~4s, exponential.
func CheckpointWriteBuckets() []int64 { return obs.ExpBuckets(1024, 4, 12) }

// WriteCheckpointMetered is WriteCheckpoint plus write-amplification
// instrumentation into reg (nil skips it): counters
// fuzz.campaign.checkpoints_written and fuzz.campaign.checkpoint_bytes,
// and the fuzz.campaign.checkpoint_write_ns latency histogram — the
// data behind the ROADMAP "compact checkpoint encoding" decision.
func WriteCheckpointMetered(path string, ck *Checkpoint, reg *obs.Registry) (int, error) {
	start := time.Now()
	nb, err := WriteCheckpoint(path, ck)
	if err != nil || reg == nil {
		return nb, err
	}
	reg.Counter("fuzz.campaign.checkpoints_written").Add(1)
	reg.Counter("fuzz.campaign.checkpoint_bytes").Add(uint64(nb))
	reg.Histogram("fuzz.campaign.checkpoint_write_ns", CheckpointWriteBuckets()).Observe(time.Since(start).Nanoseconds())
	return nb, err
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint. It
// rejects documents of the wrong kind; configuration validation is the
// caller's job (Validate, with the resuming campaign's hash).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		return nil, fmt.Errorf("fuzz: parsing checkpoint %s: %w", path, err)
	}
	if ck.Kind != CheckpointKind {
		return nil, fmt.Errorf("fuzz: %s: artifact kind %q, want %q", path, ck.Kind, CheckpointKind)
	}
	return &ck, nil
}

// PendingMismatches decodes the checkpoint's shrink queue.
func (ck *Checkpoint) PendingMismatches() ([]Mismatch, error) {
	out := make([]Mismatch, 0, len(ck.Pending))
	for i, mj := range ck.Pending {
		m, err := DecodeMismatch(mj)
		if err != nil {
			return nil, fmt.Errorf("fuzz: checkpoint pending[%d]: %w", i, err)
		}
		out = append(out, m)
	}
	return out, nil
}
