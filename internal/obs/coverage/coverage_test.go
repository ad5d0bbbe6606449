package coverage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// sample builds a snapshot from a deterministic observation script so
// tests can replay the same observations in different groupings.
func sample(seeds []int) *Snapshot {
	var s Snapshot
	for _, i := range seeds {
		s.ObserveProgram(2, 4+i%3, map[string]uint64{"store": uint64(2 + i%2), "load": 2})
		s.ObserveOutcomeSet(2, 4+i%3, 1+i%5)
		s.ObserveExploration(100+i, 250+i, 10, 3, 1)
		if i%4 == 0 {
			s.ObserveTruncated()
		}
		for _, pol := range []string{"eager", "random"} {
			for idx := 0; idx < 2; idx++ {
				s.ObserveRun(i%2, pol, idx)
			}
		}
		s.ObserveDrain("delta", uint64(5+i))
		s.ObserveDrain("final", 2)
	}
	return &s
}

func TestMergeOrderIndependent(t *testing.T) {
	all := sample([]int{0, 1, 2, 3, 4, 5, 6, 7})

	// The same observations split into per-"worker" snapshots and
	// merged in a different grouping must produce an identical document.
	var merged Snapshot
	merged.Merge(sample([]int{0, 1, 2}))
	merged.Merge(sample([]int{3}))
	merged.Merge(sample([]int{4, 5, 6, 7}))

	if !reflect.DeepEqual(all, &merged) {
		t.Errorf("merged snapshot differs from the all-at-once snapshot:\n got %+v\nwant %+v", &merged, all)
	}

	aj, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	mj, err := json.Marshal(&merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, mj) {
		t.Errorf("merged JSON differs:\n got %s\nwant %s", mj, aj)
	}
}

func TestJSONRoundTripByteIdentical(t *testing.T) {
	s := sample([]int{2, 9, 11})
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.MarshalIndent(&back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Errorf("round trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", blob, blob2)
	}
}

func TestDerivedStats(t *testing.T) {
	var s Snapshot
	// Four outcome sets for shape 2x4: cardinalities 1, 1, 2, 8.
	s.ObserveProgram(2, 4, nil)
	for _, c := range []int{1, 1, 2, 8} {
		s.ObserveOutcomeSet(2, 4, c)
	}
	sh := s.Shapes[ShapeKey(2, 4)]
	if sh.OutcomeSets != 4 || sh.CardMin != 1 || sh.CardMax != 8 || sh.CardSum != 12 {
		t.Fatalf("shape stats: %+v", sh)
	}
	if got := sh.MeanCard(); got != 3 {
		t.Errorf("MeanCard = %v, want 3", got)
	}
	// Buckets hit: <=1 twice, <=2 once, <=8 once → p = {1/2, 1/4, 1/4},
	// H = 1.5 bits.
	if got := sh.CardEntropy(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("CardEntropy = %v, want 1.5", got)
	}

	// The wire form carries the derived fields.
	blob, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	shapes := doc["shapes"].(map[string]any)
	view := shapes["2x4"].(map[string]any)
	if view["entropy_bits"].(float64) != 1.5 || view["mean_card"].(float64) != 3 {
		t.Errorf("wire shape view lacks derived stats: %v", view)
	}
}

func TestCellAndDrainAccumulation(t *testing.T) {
	var s Snapshot
	s.ObserveRun(1, "eager", 0)
	s.ObserveRun(1, "eager", 0)
	s.ObserveRun(0, "random", 2)
	if s.Runs != 3 {
		t.Errorf("Runs = %d, want 3", s.Runs)
	}
	if got := s.Cells[CellKey(1, "eager", 0)]; got != 2 {
		t.Errorf("cell count = %d, want 2", got)
	}
	if len(s.Cells) != 2 {
		t.Errorf("distinct cells = %d, want 2", len(s.Cells))
	}
	s.ObserveDrain("delta", 0) // zero counts must not create keys
	if _, ok := s.DrainMix["delta"]; ok {
		t.Error("zero drain observation created a DrainMix key")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := sample([]int{1})
	c := s.Clone()
	s.ObserveRun(7, "adversarial", 0)
	s.ObserveProgram(3, 9, map[string]uint64{"fence": 1})
	if c.Runs == s.Runs || c.Programs == s.Programs {
		t.Error("clone shares counters with the original")
	}
	if _, ok := c.Cells[CellKey(7, "adversarial", 0)]; ok {
		t.Error("clone shares the cell map")
	}
}

func TestEmpty(t *testing.T) {
	var s Snapshot
	if !s.Empty() {
		t.Error("zero snapshot not Empty")
	}
	s.ObserveTruncated()
	if s.Empty() {
		t.Error("snapshot with a truncated exploration reports Empty")
	}
	var nilSnap *Snapshot
	if !nilSnap.Empty() {
		t.Error("nil snapshot not Empty")
	}
}

// TestKeysMatchSprintf pins CellKey and ShapeKey to the Sprintf forms
// their bytes were defined by, negative Δ and odd policy names included.
func TestKeysMatchSprintf(t *testing.T) {
	for _, d := range []int{-1, 0, 3, 1 << 20} {
		for _, pol := range []string{"", "fifo", "random walk"} {
			for _, i := range []int{0, 7, 29, 1000} {
				if got, want := CellKey(d, pol, i), fmt.Sprintf("delta=%d policy=%s seed=%d", d, pol, i); got != want {
					t.Errorf("CellKey = %q, want %q", got, want)
				}
				if got, want := ShapeKey(d, i), fmt.Sprintf("%dx%d", d, i); got != want {
					t.Errorf("ShapeKey = %q, want %q", got, want)
				}
			}
		}
	}
}
