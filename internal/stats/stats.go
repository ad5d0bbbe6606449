// Package stats provides the small aggregation helpers the benchmark
// harness uses: medians of repeated runs (the paper reports medians of
// N runs) and human-readable rate and byte formatting. Histograms and
// counters live in internal/obs.
package stats

import (
	"fmt"
	"sort"
)

// Median returns the median of xs (0 if empty). It does not modify xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// FormatRate renders ops/sec human-readably (e.g. "12.3M ops/s").
func FormatRate(opsPerSec float64) string {
	switch {
	case opsPerSec >= 1e9:
		return fmt.Sprintf("%.2fG ops/s", opsPerSec/1e9)
	case opsPerSec >= 1e6:
		return fmt.Sprintf("%.2fM ops/s", opsPerSec/1e6)
	case opsPerSec >= 1e3:
		return fmt.Sprintf("%.2fK ops/s", opsPerSec/1e3)
	default:
		return fmt.Sprintf("%.1f ops/s", opsPerSec)
	}
}

// FormatBytes renders a byte count human-readably.
func FormatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
