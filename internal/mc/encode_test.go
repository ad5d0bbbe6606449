package mc

import (
	"maps"
	"testing"
)

// TestCodecWidthBoundary: programs on either side of each one-byte
// bound (|value| 127 vs 128, Wait 255 vs 256, ageCapFor(Δ) 255 vs 256)
// get the width the bound says, and explore to the same States,
// Transitions and Outcomes in either width, with the reference's
// outcome set.
func TestCodecWidthBoundary(t *testing.T) {
	value := func(addend int) Program { // |value| ≤ 100 + addend, reached
		return Program{Threads: [][]Op{
			{St(0, 100), Ld(1, 0)},
			{RMW(0, addend, 0), Ld(0, 1)},
		}, Vars: 2, Regs: 2}
	}
	wait := func(n int) Program {
		return Program{Threads: [][]Op{{St(0, 1), Wait(n), Ld(1, 0)}, {St(1, 1), Ld(0, 0)}}, Vars: 2, Regs: 1}
	}
	// Thread 1 waits long enough for thread 0's store to age to Δ.
	age := Program{Threads: [][]Op{{St(0, 1), Ld(1, 0)}, {Wait(128), Wait(128), St(1, 1), Ld(0, 0)}}, Vars: 2, Regs: 1}
	cases := []struct {
		name  string
		p     Program
		delta int
		wide  bool
	}{
		{"value=127", value(27), 0, false},
		{"value=128", value(28), 0, true},
		{"value=127/delta=2", value(27), 2, false},
		{"wait=255", wait(255), 0, false},
		{"wait=256", wait(256), 0, true},
		{"agecap=255", age, 254, false},
		{"agecap=256", age, 255, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := codecFor(c.p, c.delta).wide; got != c.wide {
				t.Fatalf("wide = %v, want %v", got, c.wide)
			}
			ref := sequential(t, c.p, c.delta)
			var first Result
			for _, wide := range []bool{false, true} {
				if c.wide && !wide {
					continue // the fields do not fit a byte
				}
				res, err := new(Explorer).explore(c.p, c.delta, Options{Workers: 1}, codec{wide: wide})
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(res.Outcomes, ref.Outcomes) {
					t.Fatalf("wide=%v: outcomes %v, reference %v", wide, res.List(), ref.List())
				}
				if first.Outcomes == nil {
					first = res
				} else if res.States != first.States || res.Transitions != first.Transitions {
					t.Fatalf("wide: %d states, %d transitions; narrow: %d, %d",
						res.States, res.Transitions, first.States, first.Transitions)
				}
			}
			t.Logf("%d states, %d outcomes", first.States, len(first.Outcomes))
		})
	}
}
