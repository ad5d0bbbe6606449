package mc

import "encoding/binary"

// Fixed-width binary state encoding. A state serializes to a byte
// string: per thread (pc, wait, armed, buffer length, buffer entries as
// (addr, val, age), registers), then memory. Every field has one width
// for the whole exploration, fixed by codecFor from the program's
// static bounds: one byte when every field of every reachable state
// fits one, eight (big-endian) otherwise. Values that may be negative
// (register and memory words, buffered values) are zigzag-encoded, so
// in both widths bytes.Compare orders encodings field by field
// numerically and symmetry picks the same representative either way.
// The encoding is canonical — equal states encode to equal bytes — so
// it doubles as the visited-set key, and it is losslessly decodable so
// the frontier stores encoded states and workers rehydrate them into
// reusable scratch structs.

// codec is one exploration's field width.
type codec struct{ wide bool }

// codecFor sizes the fields for p at Δ. The unsigned fields are bounded
// by pc ≤ ops, wait ≤ the largest Wait, buffer length ≤ stores ≤ ops,
// addr < Vars and age ≤ ageCapFor(Δ); they fit a byte up to 255. Every
// value is a store constant or zero plus a subset of the RMW addends
// (each RMW runs once), so |value| ≤ max |store| + Σ |addend|, and its
// zigzag fits a byte up to 127.
func codecFor(p Program, delta int) codec {
	unsigned := max(ageCapFor(delta), p.Vars-1)
	var store, addends uint
	for _, ops := range p.Threads {
		unsigned = max(unsigned, len(ops))
		for _, op := range ops {
			mag := min(uint(max(op.Val, -op.Val)), 128) // saturated: 128 is already wide
			switch op.Kind {
			case OpStore:
				store = max(store, mag)
			case OpRMW:
				addends += mag
			case OpWait:
				unsigned = max(unsigned, op.Val)
			}
		}
	}
	return codec{wide: unsigned > 0xff || store+addends > 127}
}

func (c codec) put(dst []byte, u uint64) []byte {
	if c.wide {
		return binary.BigEndian.AppendUint64(dst, u)
	}
	return append(dst, byte(u))
}

// putInt appends a value that may be negative, zigzag-encoded.
func (c codec) putInt(dst []byte, v int) []byte { return c.put(dst, zig(v)) }

// zig is the zigzag form of v, which a narrow codec keeps one byte of.
func zig(v int) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// appendThread appends thread i's local state (everything except
// shared memory). Split out so symmetry canonicalization can compare
// thread-local encodings (reduce.go). The one-byte width, the one
// explorations almost always take, appends several fields at a time.
func (c codec) appendThread(dst []byte, s *state, i int) []byte {
	if !c.wide {
		var armed byte
		if s.armed[i] {
			armed = 1
		}
		dst = append(dst, byte(s.pc[i]), byte(s.wait[i]), armed, byte(len(s.bufs[i])))
		for _, e := range s.bufs[i] {
			dst = append(dst, byte(e.addr), byte(zig(e.val)), byte(e.age))
		}
		for _, r := range s.regs[i] {
			dst = append(dst, byte(zig(r)))
		}
		return dst
	}
	dst = c.put(dst, uint64(s.pc[i]))
	dst = c.put(dst, uint64(s.wait[i]))
	var armed uint64
	if s.armed[i] {
		armed = 1
	}
	dst = c.put(dst, armed)
	dst = c.put(dst, uint64(len(s.bufs[i])))
	for _, e := range s.bufs[i] {
		dst = c.put(dst, uint64(e.addr))
		dst = c.putInt(dst, e.val)
		dst = c.put(dst, uint64(e.age))
	}
	for _, r := range s.regs[i] {
		dst = c.putInt(dst, r)
	}
	return dst
}

// appendState appends the full canonical encoding of s.
func (c codec) appendState(dst []byte, s *state) []byte {
	for i := range s.pc {
		dst = c.appendThread(dst, s, i)
	}
	for _, v := range s.mem {
		dst = c.putInt(dst, v)
	}
	return dst
}

// reader walks an encoding field by field; next reads an unsigned field.
type reader struct {
	src  []byte
	pos  int
	wide bool
}

func (r *reader) next() int {
	if r.wide {
		u := binary.BigEndian.Uint64(r.src[r.pos:])
		r.pos += 8
		return int(u)
	}
	b := r.src[r.pos]
	r.pos++
	return int(b)
}

// nextInt reads a value that may be negative.
func (r *reader) nextInt() int { return unzig(uint64(r.next())) }

func unzig(u uint64) int { return int(u>>1) ^ -int(u&1) }

// decodeState rehydrates src, produced by appendState, into dst, which
// has the layout of src's program (newState). A buffer longer than its
// thread's region is not a state of that program and panics. The
// one-byte width reads a thread's fixed fields and each buffer entry
// through one bounds check.
func (c codec) decodeState(dst *state, src []byte) {
	if !c.wide {
		pos := 0
		for i := range dst.pc {
			h := src[pos : pos+4]
			dst.pc[i], dst.wait[i], dst.armed[i] = int(h[0]), int(h[1]), h[2] != 0
			b := dst.bufs[i][:h[3]]
			pos += 4
			for j := range b {
				e := src[pos : pos+3]
				b[j] = bufEntry{addr: int(e[0]), val: unzig(uint64(e[1])), age: int(e[2])}
				pos += 3
			}
			dst.bufs[i] = b
			for k := range dst.regs[i] {
				dst.regs[i][k] = unzig(uint64(src[pos]))
				pos++
			}
		}
		for a := range dst.mem {
			dst.mem[a] = unzig(uint64(src[pos]))
			pos++
		}
		if pos != len(src) {
			panic("mc: trailing bytes in state encoding")
		}
		return
	}
	r := reader{src: src, wide: c.wide}
	for i := range dst.pc {
		dst.pc[i] = r.next()
		dst.wait[i] = r.next()
		dst.armed[i] = r.next() != 0
		b := dst.bufs[i][:r.next()]
		for j := range b {
			b[j] = bufEntry{addr: r.next(), val: r.nextInt(), age: r.next()}
		}
		dst.bufs[i] = b
		for k := range dst.regs[i] {
			dst.regs[i][k] = r.nextInt()
		}
	}
	for a := range dst.mem {
		dst.mem[a] = r.nextInt()
	}
	if r.pos != len(src) {
		panic("mc: trailing bytes in state encoding")
	}
}

// appendRegs encodes the per-thread register files alone — the compact
// form outcomes are accumulated in before orbit expansion and
// stringification (explore.go).
func (c codec) appendRegs(dst []byte, regs [][]int) []byte {
	for _, rf := range regs {
		for _, v := range rf {
			dst = c.putInt(dst, v)
		}
	}
	return dst
}

// decodeRegs is the inverse of appendRegs: it fills dst, already
// shaped as the program's register files, from src.
func (c codec) decodeRegs(dst [][]int, src []byte) {
	r := reader{src: src, wide: c.wide}
	for _, rf := range dst {
		for k := range rf {
			rf[k] = r.nextInt()
		}
	}
}
