package obs

import (
	"reflect"
	"testing"
)

func TestMergeMetricsKinds(t *testing.T) {
	a := NewRegistry()
	a.Counter("work.done").Add(3)
	a.Gauge("pool.size").Set(5)
	h := a.Histogram("lat.ns", []int64{10, 100})
	h.Observe(7)
	h.Observe(50)

	b := NewRegistry()
	b.Counter("work.done").Add(4)
	b.Gauge("pool.size").Set(2)
	hb := b.Histogram("lat.ns", []int64{10, 100})
	hb.Observe(400)
	b.Counter("only.b").Add(1)

	got := MergeMetrics(a.Snapshot(), b.Snapshot())
	byName := map[string]Metric{}
	for _, m := range got {
		byName[m.Name] = m
	}
	if m := byName["work.done"]; m.Kind != "counter" || m.Value != 7 {
		t.Errorf("counter merge: %+v", m)
	}
	if m := byName["pool.size"]; m.Kind != "gauge" || m.Value != 5 {
		t.Errorf("gauge merge (want max): %+v", m)
	}
	if m := byName["only.b"]; m.Value != 1 {
		t.Errorf("unilateral metric lost: %+v", m)
	}
	m := byName["lat.ns"]
	if m.Count != 3 || m.Sum != 457 || m.Min != 7 || m.Max != 400 {
		t.Errorf("histogram merge: %+v", m)
	}
	if m.Mean != float64(457)/3 {
		t.Errorf("histogram mean not recomputed: %v", m.Mean)
	}
	if m.P50 != 0 || m.P999 != 0 {
		t.Errorf("quantiles fabricated across runs: %+v", m)
	}
	var bucketTotal uint64
	for _, bc := range m.Buckets {
		bucketTotal += bc.Count
	}
	if len(m.Buckets) != 3 || bucketTotal != 3 {
		t.Errorf("buckets not summed: %+v", m.Buckets)
	}

	// Sorted by name, and merging is order-insensitive for these inputs.
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Fatalf("output not sorted: %q >= %q", got[i-1].Name, got[i].Name)
		}
	}
	rev := MergeMetrics(b.Snapshot(), a.Snapshot())
	for i := range rev {
		if rev[i].Name != got[i].Name || rev[i].Value != got[i].Value || rev[i].Count != got[i].Count || rev[i].Sum != got[i].Sum {
			t.Fatalf("merge order changed totals: %+v vs %+v", rev[i], got[i])
		}
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	// An empty histogram snapshot reports Min 0; merging a real sample
	// into it must take the sample's min, not keep the placeholder.
	a := NewRegistry()
	a.Histogram("lat.ns", []int64{10, 100})
	b := NewRegistry()
	b.Histogram("lat.ns", []int64{10, 100}).Observe(3)
	got := MergeMetrics(a.Snapshot(), b.Snapshot())
	if m := got[0]; m.Count != 1 || m.Min != 3 || m.Max != 3 {
		t.Fatalf("merge into empty: %+v", m)
	}
}

func TestMergeMetricsMismatchedBuckets(t *testing.T) {
	a := NewRegistry()
	a.Histogram("lat.ns", []int64{10, 100}).Observe(5)
	b := NewRegistry()
	b.Histogram("lat.ns", []int64{16, 256}).Observe(20)
	got := MergeMetrics(a.Snapshot(), b.Snapshot())
	if len(got) != 1 {
		t.Fatalf("got %d metrics", len(got))
	}
	m := got[0]
	if m.Count != 2 || m.Sum != 25 {
		t.Errorf("summary totals lost: %+v", m)
	}
	if m.Buckets != nil {
		t.Errorf("incompatible buckets should be dropped, got %+v", m.Buckets)
	}
}

func TestMergeMetricsSingleInputIsStable(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(2)
	a.Gauge("g").Set(-3)
	one := MergeMetrics(a.Snapshot())
	again := MergeMetrics(one)
	// Quantile-free metrics are a fixed point of merging with nothing.
	if !reflect.DeepEqual(one, again) {
		t.Fatalf("re-merge changed the snapshot:\n%+v\n%+v", one, again)
	}
}
