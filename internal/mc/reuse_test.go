package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestExplorerReuse: one Explorer and one Reference, reused over a
// shuffled mix of corpus programs and Δs with a truncated, a
// pre-cancelled and a mid-flight-cancelled run among them, return the
// Results and errors fresh calls return. A mid-flight cancellation lands
// anywhere, so only its error kind is checked; the calls after it are
// checked in full.
func TestExplorerReuse(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type call struct {
		p         Program
		delta     int
		opts      Options
		maxStates int // the reference's budget
		midFlight bool
	}
	var calls []call
	for seed := int64(0); seed < 60; seed++ {
		for _, delta := range []int{0, 1, 3} {
			calls = append(calls, call{p: genProgram(seed), delta: delta, opts: Options{Workers: 1}, maxStates: DefaultMaxStates})
		}
	}
	calls = append(calls,
		call{p: ringProg(4), delta: 2, opts: Options{Workers: 1}, maxStates: DefaultMaxStates}, // past every kept cap
		call{p: interruptProg(), delta: 1, opts: Options{Workers: 1, MaxStates: 500}, maxStates: 500},
		call{p: interruptProg(), delta: 0, opts: Options{Workers: 1, Context: cancelled}, maxStates: 50},
		call{p: interruptProg(), delta: 1, opts: Options{Workers: 1}, midFlight: true},
		call{p: ringProg(3), delta: 0, opts: Options{Workers: 2, NoSymmetry: true}, maxStates: DefaultMaxStates},
		call{p: iriwProg(), delta: 2, opts: Options{Workers: 1, NoReduction: true}, maxStates: DefaultMaxStates},
	)
	rand.New(rand.NewSource(1)).Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

	var x Explorer
	var r Reference
	for i, c := range calls {
		name := fmt.Sprintf("call %d (%s Δ=%d %+v)", i, c.p.shape(c.delta), c.delta, c.opts)
		if c.midFlight {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(time.Millisecond, cancel)
			c.opts.Context = ctx
			if _, err := x.Explore(c.p, c.delta, c.opts); err != nil && !errors.Is(err, ErrInterrupted) {
				t.Fatalf("%s: %v", name, err)
			}
			cancel()
			continue
		}
		got, gotErr := x.Explore(c.p, c.delta, c.opts)
		want, wantErr := ExploreParallel(c.p, c.delta, c.opts)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: reused engine %+v, %v; fresh %+v, %v", name, got, gotErr, want, wantErr)
		}
		got, gotErr = r.Explore(c.p, c.delta, c.maxStates, got.States) // the engine's count sizes the seen map
		want, wantErr = ExploreSequentialBounded(c.p, c.delta, c.maxStates)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: reused reference %+v, %v; fresh %+v, %v", name, got, gotErr, want, wantErr)
		}
	}
}
