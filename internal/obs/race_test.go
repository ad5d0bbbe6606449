package obs

import (
	"sync"
	"testing"
)

// TestRegistryConcurrentStress hammers one registry from many
// goroutines doing get-or-create, Inc/Add/Set/Observe, and concurrent
// Snapshot/WriteText readers. It asserts the final counts (nothing
// lost) and, under -race, that the whole surface is data-race free —
// the live ops endpoint snapshots the registry while machine sinks are
// still writing into it, so this interleaving is the production one.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	const (
		writers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Get-or-create raced across goroutines on shared names.
				r.Counter("stress.count").Inc()
				r.Counter("stress.count").Add(1)
				r.Gauge("stress.gauge").Add(1)
				r.Histogram("stress.hist", ExpBuckets(1, 2, 10)).Observe(int64(i % 100))
				if i%64 == 0 {
					r.Gauge("stress.gauge").Set(int64(i))
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots and lookups while writes are in flight.
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, m := range r.Snapshot() {
					_ = m.Name
				}
				r.LookupCounter("stress.count")
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("stress.count").Load(); got != writers*iters*2 {
		t.Fatalf("counter = %d, want %d", got, writers*iters*2)
	}
	if got := r.Histogram("stress.hist", nil).Count(); got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
}
