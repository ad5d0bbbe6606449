package hashtable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tbtso/internal/arena"
	"tbtso/internal/list"
	"tbtso/internal/obs"
	"tbtso/internal/smr"
)

func newTable(t *testing.T, kind smr.Kind, threads, buckets, capacity int) (*Table, *arena.Arena, smr.Scheme) {
	t.Helper()
	ar := arena.New(capacity, threads+1)
	s := smr.New(kind, smr.Config{
		Threads: threads,
		K:       list.NumSlots,
		R:       threads*list.NumSlots + 4,
		Arena:   ar,
		Delta:   time.Millisecond,
	})
	return New(ar, s, buckets), ar, s
}

func TestBasicSetOperations(t *testing.T) {
	tb, _, s := newTable(t, smr.KindFFHP, 1, 16, 256)
	defer s.Close()
	if ok, _ := tb.Insert(0, 10); !ok {
		t.Fatal("insert failed")
	}
	if ok, _ := tb.Insert(0, 10); ok {
		t.Fatal("duplicate insert succeeded")
	}
	if !tb.Lookup(0, 10) || tb.Lookup(0, 11) {
		t.Fatal("lookup wrong")
	}
	if !tb.Remove(0, 10) || tb.Remove(0, 10) {
		t.Fatal("remove wrong")
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestAgainstModelSequential(t *testing.T) {
	tb, ar, s := newTable(t, smr.KindHP, 1, 64, 2048)
	defer s.Close()
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			got, err := tb.Insert(0, k)
			if err != nil {
				t.Fatal(err)
			}
			if got == model[k] {
				t.Fatalf("insert(%d)", k)
			}
			model[k] = true
		case 1:
			if got := tb.Remove(0, k); got != model[k] {
				t.Fatalf("remove(%d)", k)
			}
			delete(model, k)
		case 2:
			if got := tb.Lookup(0, k); got != model[k] {
				t.Fatalf("lookup(%d)", k)
			}
		}
	}
	if tb.Len() != len(model) {
		t.Fatalf("len %d vs model %d", tb.Len(), len(model))
	}
	if ar.Violations() != 0 {
		t.Fatalf("violations: %d", ar.Violations())
	}
}

func TestQuickSetSemantics(t *testing.T) {
	tb, _, s := newTable(t, smr.KindEBR, 1, 16, 4096)
	defer s.Close()
	model := map[uint64]bool{}
	f := func(k uint16, op uint8) bool {
		key := uint64(k % 128)
		switch op % 3 {
		case 0:
			got, err := tb.Insert(0, key)
			if err != nil {
				return false
			}
			want := !model[key]
			model[key] = true
			return got == want
		case 1:
			want := model[key]
			delete(model, key)
			return tb.Remove(0, key) == want
		default:
			return tb.Lookup(0, key) == model[key]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWorkloadAllSchemes(t *testing.T) {
	const threads = 4
	for _, kind := range smr.AllKinds() {
		if kind == smr.KindFFHPTicks {
			continue // needs a board; covered in list tests
		}
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			tb, ar, s := newTable(t, kind, threads, 64, 16384)
			defer s.Close()
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < 3000; i++ {
						k := uint64(rng.Intn(512))
						switch rng.Intn(4) {
						case 0:
							_, _ = tb.Insert(tid, k)
						case 1:
							tb.Remove(tid, k)
						default:
							tb.Lookup(tid, k)
						}
					}
					s.Flush(tid)
					if r, ok := s.(*smr.RCU); ok {
						r.Offline(tid)
					}
				}(tid)
			}
			wg.Wait()
			if v := ar.Violations(); v != 0 {
				t.Fatalf("%d arena violations", v)
			}
			s.Flush(0)
			if live, want := ar.Live(), tb.Len()+s.Unreclaimed(); live != want {
				t.Fatalf("conservation: live=%d list+unreclaimed=%d", live, want)
			}
			// The hazard-pointer schemes' own books must balance too:
			// every retired node freed or still pending.
			if hp, ok := s.(*smr.HazardPointers); ok {
				if err := hp.VerifyAccounting(); err != nil {
					t.Fatalf("accounting violated: %v", err)
				}
				reg := obs.NewRegistry()
				hp.Metrics(reg)
				if c, ok := reg.LookupCounter("smr." + s.Name() + ".retires"); !ok || c.Load() == 0 {
					t.Fatal("no retires published; the accounting check is vacuous")
				}
			}
		})
	}
}

func TestBucketCountValidation(t *testing.T) {
	ar := arena.New(16, 2)
	s := smr.NewLeaky(smr.Config{Threads: 1, K: 3, R: 8, Arena: ar})
	for _, bad := range []int{0, -4, 3, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("buckets=%d did not panic", bad)
				}
			}()
			New(ar, s, bad)
		}()
	}
}

func TestHashSpreads(t *testing.T) {
	// Sequential keys must not all land in one bucket.
	seen := map[uint64]bool{}
	for k := uint64(0); k < 1024; k++ {
		seen[hash(k)&1023] = true
	}
	if len(seen) < 512 {
		t.Fatalf("hash maps 1024 sequential keys into only %d/1024 buckets", len(seen))
	}
}
