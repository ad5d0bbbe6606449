package litmus_test

import (
	"fmt"

	"tbtso/internal/litmus"
	"tbtso/internal/tso"
)

// Explore a litmus test across scheduler seeds and drain policies, then
// check whether the model's forbidden outcome ever appeared.
func ExampleRun() {
	rep := litmus.Run(litmus.StoreBuffering(true), litmus.RunConfig{
		Seeds: 50,
		Delta: 0, // plain TSO; the fences make 0/0 forbidden anyway
	})
	fmt.Println("executions:", rep.Total)
	fmt.Println("forbidden outcome seen:", rep.ForbiddenSeen())
	// Output:
	// executions: 150
	// forbidden outcome seen: false
}

// A single traced execution shows the buffered stores committing.
func ExampleOnceTraced() {
	out, trace, err := litmus.OnceTraced(litmus.StoreBuffering(false), tso.Config{
		Policy: tso.DrainAdversarial,
		Seed:   0,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("outcome:", out)
	fmt.Println("events recorded:", len(trace) > 0)
	// Output:
	// outcome: T0:r0=0 T1:r0=0
	// events recorded: true
}
