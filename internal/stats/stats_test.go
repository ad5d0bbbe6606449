package stats

import (
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("median(nil) = %v", m)
	}
	// Median must not mutate its input.
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestFormatters(t *testing.T) {
	if s := FormatRate(2.5e6); !strings.Contains(s, "M") {
		t.Fatalf("rate = %q", s)
	}
	if s := FormatBytes(3 << 20); !strings.Contains(s, "MiB") {
		t.Fatalf("bytes = %q", s)
	}
}

func TestFormatRateRanges(t *testing.T) {
	cases := map[float64]string{
		5:   "ops/s",
		5e3: "K ops/s",
		5e6: "M ops/s",
		5e9: "G ops/s",
	}
	for v, want := range cases {
		if got := FormatRate(v); !strings.Contains(got, want) {
			t.Fatalf("FormatRate(%g) = %q", v, got)
		}
	}
}

func TestFormatBytesRanges(t *testing.T) {
	cases := map[uint64]string{
		5:       "B",
		5 << 10: "KiB",
		5 << 20: "MiB",
		5 << 30: "GiB",
	}
	for v, want := range cases {
		if got := FormatBytes(v); !strings.Contains(got, want) {
			t.Fatalf("FormatBytes(%d) = %q", v, got)
		}
	}
}
