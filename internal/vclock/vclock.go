// Package vclock provides the global clocks TBTSO algorithms read.
//
// The paper's algorithms assume an invariant timestamp counter readable
// cheaply by every thread (§6). Natively we use Go's monotonic clock;
// on the abstract machine the global tick counter plays the same role.
package vclock

import "time"

// base anchors the monotonic clock so Now() values are small and
// strictly relative, like a TSC read.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. It is the
// native stand-in for the invariant TSC the paper relies on.
func Now() int64 {
	return int64(time.Since(base))
}

// Delta values used throughout the evaluation (§7): the estimated
// hardware-TBTSO bound and the OS-adapted (timer interrupt) bound.
const (
	// HardwareDelta is the paper's extrapolated hardware bound (0.5 ms).
	HardwareDelta = 500 * time.Microsecond
	// AdaptedDelta is the paper's OS-timer-adapted bound (4 ms).
	AdaptedDelta = 4 * time.Millisecond
)
