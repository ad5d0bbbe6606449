package mc

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// visitedKeys returns n distinct keys of varied length, then one longer
// than the first chunk and one longer than the largest chunk.
func visitedKeys(n int) [][]byte {
	keys := make([][]byte, 0, n+2)
	for i := range n {
		keys = append(keys, []byte(fmt.Sprintf("k%d/%s", i, strings.Repeat("x", i%37))))
	}
	keys = append(keys, bytes.Repeat([]byte{'L'}, 4*minChunk), bytes.Repeat([]byte{'H'}, maxChunk+5))
	return keys
}

// TestVisitedNovelOnce: every distinct key is novel exactly once and a
// repeat never is, across table growths and chunk rollovers; every view
// handed out keeps its bytes through all later inserts. It holds for one
// shard and for many, and again after the set is reset in place.
func TestVisitedNovelOnce(t *testing.T) {
	keys := visitedKeys(20000)
	for _, shards := range []int{1, parallelShards} {
		v := newVisited(shards)
		for pass := range 2 {
			if pass > 0 {
				v.reset()
				for i := range v.shards {
					if sh := &v.shards[i]; sh.n != 0 || len(sh.slots) > keepSlots || len(sh.chunks) > 1 {
						t.Fatalf("shard %d after reset: %d keys, %d slots, %d chunks", i, sh.n, len(sh.slots), len(sh.chunks))
					}
				}
			}
			t.Run(fmt.Sprintf("shards=%d/pass=%d", shards, pass), func(t *testing.T) { novelOnce(t, v, keys, pass == 0) })
		}
	}
}

// novelOnce inserts keys into v, which starts empty. On a fresh set
// (grown) the shards must have grown and rolled over, or the test means
// nothing.
func novelOnce(t *testing.T, v *visited, keys [][]byte, grown bool) {
	views := make([][]byte, len(keys))
	for i, k := range keys {
		view, novel := v.insert(k)
		if !novel {
			t.Fatalf("key %d: first insert not novel", i)
		}
		views[i] = view
		if _, novel := v.insert(bytes.Clone(k)); novel {
			t.Fatalf("key %d: immediate repeat novel", i)
		}
	}
	for i, k := range keys {
		if _, novel := v.insert(k); novel {
			t.Fatalf("key %d: late repeat novel", i)
		}
		if !bytes.Equal(views[i], k) {
			t.Fatalf("key %d: view changed to %q", i, views[i])
		}
	}
	var n, maxSlots, maxChunks int
	for i := range v.shards {
		sh := &v.shards[i]
		n += sh.n
		maxSlots = max(maxSlots, len(sh.slots))
		maxChunks = max(maxChunks, len(sh.chunks))
	}
	if n != len(keys) || grown && (maxSlots < 32*minSlots || maxChunks < 4) {
		t.Fatalf("%d keys stored of %d; largest table %d slots, most chunks %d", n, len(keys), maxSlots, maxChunks)
	}
}

// TestVisitedConcurrentInsert: 4 goroutines insert overlapping key sets
// and exactly one insert per key wins.
func TestVisitedConcurrentInsert(t *testing.T) {
	keys := visitedKeys(8000)
	wins := make([]atomic.Int32, len(keys))
	v := newVisited(parallelShards)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutine g covers three quarters of the keys, starting at
			// its own quarter, so every key is contended by three.
			for j := range 3 * len(keys) / 4 {
				i := (g*len(keys)/4 + j) % len(keys)
				if view, novel := v.insert(keys[i]); novel {
					wins[i].Add(1)
					if !bytes.Equal(view, keys[i]) {
						t.Errorf("key %d: view %q", i, view)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range wins {
		if w := wins[i].Load(); w != 1 {
			t.Fatalf("key %d: %d winning inserts", i, w)
		}
	}
}
