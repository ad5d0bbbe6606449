package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent")
	}
	// One counter per cache line, so a []Counter bank shares none.
	if size := unsafe.Sizeof(*c); size != 64 {
		t.Fatalf("Counter is %d bytes, want one 64-byte cache line", size)
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestRegistryTypeClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(LinearBuckets(10, 10, 10)) // 10,20,...,100
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	h.Observe(1000) // overflow bucket
	if got := h.Count(); got != 101 {
		t.Fatalf("count = %d, want 101", got)
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-6050.0/101) > 1e-9 {
		t.Fatalf("mean = %v, want 6050/101", got)
	}
	if q := h.Quantile(0.5); q != 60 {
		t.Fatalf("p50 = %d, want 60 (bucket upper edge)", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
	// A bucket edge above the largest sample caps at that sample.
	one := NewHistogram(ExpBuckets(1, 2, 24))
	one.Observe(1066037)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 1066037 {
			t.Fatalf("single sample: q%v = %d, want the sample 1066037", q, got)
		}
	}
	bs := h.Buckets()
	if len(bs) != 11 {
		t.Fatalf("bucket count = %d, want 11", len(bs))
	}
	if bs[0].Count != 10 { // 1..10
		t.Fatalf("first bucket = %d, want 10", bs[0].Count)
	}
	if bs[10].Bound != math.MaxInt64 || bs[10].Count != 1 {
		t.Fatalf("overflow bucket = %+v", bs[10])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 12))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i % 500))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(ExpBuckets(1, 2, 16))
		for _, v := range vals {
			h.Observe(int64(v))
		}
		prev := int64(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 12))
	for i := int64(0); i < 500; i++ {
		h.Observe(i * 7 % 300)
	}
	pts := h.CDF()
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	prevF := 0.0
	prevV := int64(-1)
	for _, p := range pts {
		if p.Fraction < prevF || p.Value <= prevV {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
		prevF, prevV = p.Fraction, p.Value
	}
	if last := pts[len(pts)-1].Fraction; last != 1 {
		t.Fatalf("CDF does not reach 1: %v", last)
	}
}

// A sample equal to a bucket bound counts at that bound: Fraction is
// P(X <= Value), not P(X < Value).
func TestCDFBoundSemantics(t *testing.T) {
	h := NewHistogram(ExpBuckets(16, 2, 4)) // 16,32,64,128
	for _, v := range []int64{16, 16, 16, 17} {
		h.Observe(v)
	}
	pts := h.CDF()
	want := []CDFPoint{{Value: 16, Fraction: 0.75}, {Value: 32, Fraction: 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %+v, want %+v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDF = %+v, want %+v", pts, want)
		}
	}
	// The overflow bucket reports the largest sample, not MaxInt64.
	h.Observe(5000)
	pts = h.CDF()
	if last := pts[len(pts)-1]; last.Value != 5000 || last.Fraction != 1 {
		t.Fatalf("overflow point = %+v, want {5000 1}", last)
	}
}

func TestEmptyHistogramEdges(t *testing.T) {
	h := NewHistogram(ExpBuckets(16, 2, 8))
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.CDF() != nil {
		t.Fatal("empty histogram must have nil CDF")
	}
	h.Observe(-5) // negative samples land in the first bucket
	if h.Count() != 1 || h.Buckets()[0].Count != 1 || h.Quantile(0.99) != -5 || h.Min() != -5 {
		t.Fatalf("negative sample: n=%d first bucket=%d p99=%d min=%d",
			h.Count(), h.Buckets()[0].Count, h.Quantile(0.99), h.Min())
	}
}

func TestExpBucketsAscending(t *testing.T) {
	bs := ExpBuckets(1, 1.3, 30)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, bs)
		}
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 16))
	c := &Counter{}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(37)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("Observe+Inc allocate %.1f bytes/op, want 0", allocs)
	}
}

func TestSnapshotAndWriters(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.gauge").Set(-2)
	h := r.Histogram("c.hist", LinearBuckets(1, 1, 4))
	h.Observe(2)
	h.Observe(3)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	// Sorted by name.
	if snap[0].Name != "a.gauge" || snap[1].Name != "b.count" || snap[2].Name != "c.hist" {
		t.Fatalf("snapshot order wrong: %v", []string{snap[0].Name, snap[1].Name, snap[2].Name})
	}
	if snap[2].Count != 2 || snap[2].Mean != 2.5 {
		t.Fatalf("histogram summary wrong: %+v", snap[2])
	}

	var text bytes.Buffer
	r.WriteText(&text)
	for _, want := range []string{"a.gauge", "-2", "b.count", "c.hist", "n=2"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var parsed []Metric
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output not parseable: %v", err)
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d metrics, want 3", len(parsed))
	}
}

func TestPublisherDeltaSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pub")

	// Two publishers (two source instances) accumulate into one counter.
	var a, b Publisher
	a.Publish(c, 10)
	b.Publish(c, 5)
	if got := c.Load(); got != 15 {
		t.Fatalf("two sources: counter = %d, want 15", got)
	}
	// Re-publishing an unchanged source is idempotent.
	a.Publish(c, 10)
	if got := c.Load(); got != 15 {
		t.Fatalf("idempotent republish: counter = %d, want 15", got)
	}
	// A grown source adds only its delta.
	a.Publish(c, 13)
	if got := c.Load(); got != 18 {
		t.Fatalf("grown source: counter = %d, want 18", got)
	}
}
