package mc

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync"
)

// visited is the sharded de-duplication set at the heart of the
// parallel engine: a power-of-two array of shards, each behind its own
// mutex, indexed by the top bits of a maphash of the encoded state.
// Workers touch one shard per lookup, so with 64 shards contention is
// negligible even at full-core fan-out; a one-worker exploration uses
// one shard. An Explorer resets its set in place between explorations.
//
// A shard stores each key once, length-prefixed, in append-only byte
// chunks that never move, and indexes them with an open-addressing
// table of uint64 slots kept at most half full. A slot packs the low
// hash bits as a tag above a reference (1-based chunk index, byte
// offset) into the chunks; 0 is an empty slot. A probe compares tags
// before bytes, and growth re-places slots by their tags, so no key is
// ever rehashed or copied. insert hands out a view of the stored key,
// which the frontier holds instead of a copy.
type visited struct {
	seed   maphash.Seed
	shift  uint // 64 − log2(len(shards)): the top hash bits pick the shard
	shards []visitedShard
}

const (
	parallelShards = 64 // a multi-worker set's shard count

	offBits  = 20                  // a record's byte offset in its chunk
	refBits  = 2 * offBits         // offset plus a 20-bit chunk index
	tagMask  = 1<<(64-refBits) - 1 // the low hash bits a slot keeps
	minChunk = 256                 // the first chunk's capacity
	maxChunk = 1 << offBits        // geometric chunk growth stops here
	minSlots = 8                   // a shard's first table

	// reset keeps at most this much of a shard, so clearing it stays
	// cheap and a large exploration's memory is released.
	keepSlots = 1 << 12
	keepChunk = 32 << 10
)

type visitedShard struct {
	mu     sync.Mutex
	n      int      // occupied slots
	slots  []uint64 // tag<<refBits | chunk<<offBits | offset, or 0
	chunks [][]byte // key records; appended to within capacity only
	// Pad each shard past a cache line so neighbouring locks don't
	// false-share.
	_ [64]byte
}

// newVisited returns an empty set of n shards, a power of two. A
// one-shard set is only ever used by one goroutine: insert takes no lock.
func newVisited(n int) *visited {
	return &visited{seed: maphash.MakeSeed(), shift: uint(64 - bits.TrailingZeros(uint(n))), shards: make([]visitedShard, n)}
}

// reset empties the set, keeping each shard's table and its last chunk
// while they are small. Views handed out before are invalid.
func (v *visited) reset() {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.n = 0
		if len(sh.slots) > keepSlots {
			sh.slots = nil
		} else {
			clear(sh.slots)
		}
		var last []byte
		if len(sh.chunks) > 0 {
			last = sh.chunks[len(sh.chunks)-1]
		}
		clear(sh.chunks)
		sh.chunks = sh.chunks[:0]
		if last != nil && cap(last) <= keepChunk {
			sh.chunks = append(sh.chunks, last[:0])
		}
	}
}

// insert adds the encoded state if absent. It returns whether the state
// was novel and, if so, a view of the stored copy, which stays valid and
// unchanged for the set's lifetime.
func (v *visited) insert(b []byte) (key []byte, novel bool) {
	h := maphash.Bytes(v.seed, b)
	tag := h & tagMask
	sh := &v.shards[h>>v.shift]
	if len(v.shards) > 1 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	i := sh.probe(tag, b)
	if i < 0 {
		return nil, false
	}
	if 2*(sh.n+1) > len(sh.slots) {
		sh.grow()
		i = sh.probe(tag, nil)
	}
	ref, key := sh.store(b)
	sh.slots[i] = tag<<refBits | ref
	sh.n++
	return key, true
}

// probe returns the empty slot where a key with this tag belongs, or -1
// if b is already present. A nil b skips the comparison (growth).
func (sh *visitedShard) probe(tag uint64, b []byte) int {
	if len(sh.slots) == 0 {
		return 0
	}
	mask := uint64(len(sh.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == 0 {
			return int(i)
		}
		if b != nil && s>>refBits == tag && bytes.Equal(sh.key(s), b) {
			return -1
		}
	}
}

// grow doubles the table and re-places every slot by its tag.
func (sh *visitedShard) grow() {
	old := sh.slots
	sh.slots = make([]uint64, max(2*len(old), minSlots))
	for _, s := range old {
		if s != 0 {
			sh.slots[sh.probe(s>>refBits, nil)] = s
		}
	}
}

// key returns the stored bytes slot s refers to.
func (sh *visitedShard) key(s uint64) []byte {
	c := sh.chunks[(s>>offBits)&(maxChunk-1)-1]
	off := int(s & (maxChunk - 1))
	n, w := binary.Uvarint(c[off:])
	return c[off+w : off+w+int(n)]
}

// store appends b, length-prefixed, to the last chunk. When it does not
// fit, a new chunk opens at twice the last one's capacity, capped at
// maxChunk, or at exactly the record's size if that is larger, so every
// record starts below maxChunk. Twenty index bits address 2^20 chunks,
// far beyond any state budget the engine can hold in memory.
func (sh *visitedShard) store(b []byte) (ref uint64, key []byte) {
	need := len(b) + 1
	for n := len(b); n >= 0x80; n >>= 7 {
		need++
	}
	last := len(sh.chunks) - 1
	if last < 0 || cap(sh.chunks[last])-len(sh.chunks[last]) < need {
		size := minChunk
		if last >= 0 {
			size = min(2*cap(sh.chunks[last]), maxChunk)
		}
		sh.chunks = append(sh.chunks, make([]byte, 0, max(size, need)))
		last++
	}
	c := sh.chunks[last]
	off := len(c)
	c = binary.AppendUvarint(c, uint64(len(b)))
	start := len(c)
	c = append(c, b...)
	sh.chunks[last] = c
	return uint64(last+1)<<offBits | uint64(off), c[start:len(c):len(c)]
}
