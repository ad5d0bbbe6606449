package quiesce

import (
	"errors"
	"fmt"
	"time"

	"tbtso/internal/obs"
)

// VerifyCover checks, after episodes have published their histograms
// into reg (Params.Metrics), that the Δ the design derives from the
// same parameters (EstimateDelta) covers every observed quiescence
// wait ("quiesce.wait_ns") and bail-out-bounded store visibility
// ("quiesce.bailout_visibility_ns") — the bound the paper's fence-free
// algorithms are sized against must never be betrayed by the model
// that justifies it. The raw "quiesce.visibility_ns" distribution is
// deliberately not covered: without the bail-out it has an unbounded
// tail, and bounding it is exactly what the mechanism adds. It reads
// reg.Snapshot(), so it creates no metric, and returns one error per
// uncovered histogram (nil when everything is covered or nothing was
// published).
func VerifyCover(p Params, reg *obs.Registry, hwThreads int) error {
	bound := EstimateDelta(p, hwThreads)
	var errs []error
	for _, m := range reg.Snapshot() {
		if m.Name != "quiesce.wait_ns" && m.Name != "quiesce.bailout_visibility_ns" {
			continue
		}
		if max := time.Duration(m.Max); m.Count > 0 && max > bound {
			errs = append(errs, fmt.Errorf("%s max %v exceeds derived bound %v — the bound does not cover the observed waits",
				m.Name, max, bound))
		}
	}
	return errors.Join(errs...)
}
