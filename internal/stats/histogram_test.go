package stats_test

// internal/stats has no histogram or counter type: callers record into
// internal/obs. These tests pin the histogram and counter behaviour
// those callers rely on, on the obs types.

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"tbtso/internal/obs"
)

func TestHistogramBasics(t *testing.T) {
	h := obs.NewHistogram(obs.ExpBuckets(1, 2, 16))
	for _, v := range []int64{1, 2, 4, 8, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 || h.Min() != 1 {
		t.Fatalf("max=%d min=%d", h.Max(), h.Min())
	}
	if got := h.Mean(); math.Abs(got-1115.0/6) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
}

func TestQuantileBoundsSamples(t *testing.T) {
	h := obs.NewHistogram(obs.ExpBuckets(1, 2, 16))
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	if p50 < 500 || p50 > 1024 {
		t.Fatalf("p50 = %d, want within (500,1024]", p50)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := obs.NewRegistry(), obs.NewRegistry()
	ha := a.Histogram("lat.ns", obs.ExpBuckets(1, 2, 16))
	ha.Observe(5)
	ha.Observe(10)
	b.Histogram("lat.ns", obs.ExpBuckets(1, 2, 16)).Observe(100)
	got := obs.MergeMetrics(a.Snapshot(), b.Snapshot())
	if len(got) != 1 {
		t.Fatalf("merged %d metrics, want 1", len(got))
	}
	if m := got[0]; m.Count != 3 || m.Max != 100 || m.Min != 5 {
		t.Fatalf("merge wrong: %+v", m)
	}
}

func TestCountersConcurrent(t *testing.T) {
	bank := make([]obs.Counter, 4)
	var wg sync.WaitGroup
	for i := range bank {
		wg.Add(1)
		go func(c *obs.Counter) {
			defer wg.Done()
			for k := 0; k < 10000; k++ {
				c.Inc()
			}
		}(&bank[i])
	}
	wg.Wait()
	var total uint64
	for i := range bank {
		total += bank[i].Load()
	}
	if total != 40000 {
		t.Fatalf("total = %d", total)
	}
}

func TestHistogramString(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("lat.ns", obs.ExpBuckets(1, 2, 16)).Observe(100)
	var buf bytes.Buffer
	r.WriteText(&buf)
	s := buf.String()
	for _, want := range []string{"n=1", "p50=", "max=100"} {
		if !strings.Contains(s, want) {
			t.Fatalf("WriteText = %q missing %q", s, want)
		}
	}
}

func TestCounterAddLoad(t *testing.T) {
	var c obs.Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 6 {
		t.Fatalf("counter = %d", c.Load())
	}
}
