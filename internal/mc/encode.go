package mc

import "encoding/binary"

// Compact binary state encoding. A state serializes to an append-only
// byte string: per thread (pc, wait, armed, buffer length, buffer
// entries, registers), then memory. Small non-negative fields use
// unsigned varints; values that may be negative (register/memory words,
// buffered values) use zigzag varints. The encoding is canonical —
// equal states encode to equal bytes — so it doubles as the visited-set
// key, and it is losslessly decodable so the frontier stores encoded
// states and workers rehydrate them into reusable scratch structs.
//
// A litmus-sized state fits in a few dozen bytes versus a few hundred
// for the reference explorer's text key, and encoding is a single
// append pass of varints with no decimal formatting.

// appendThread appends thread i's local state (everything except
// shared memory). Split out so symmetry canonicalization can compare
// thread-local encodings (reduce.go).
func (s *state) appendThread(dst []byte, i int) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.pc[i]))
	dst = binary.AppendUvarint(dst, uint64(s.wait[i]))
	if s.armed[i] {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.bufs[i])))
	for _, e := range s.bufs[i] {
		dst = binary.AppendUvarint(dst, uint64(e.addr))
		dst = binary.AppendVarint(dst, int64(e.val))
		dst = binary.AppendUvarint(dst, uint64(e.age))
	}
	for _, r := range s.regs[i] {
		dst = binary.AppendVarint(dst, int64(r))
	}
	return dst
}

// appendState appends the full canonical encoding of s.
func (s *state) appendState(dst []byte) []byte {
	for i := range s.pc {
		dst = s.appendThread(dst, i)
	}
	for _, v := range s.mem {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// uvarintAt is binary.Uvarint at offset i, returning the next offset
// and panicking on a truncated encoding.
func uvarintAt(s []byte, i int) (uint64, int) {
	var x uint64
	var shift uint
	for ; i < len(s); i++ {
		b := s[i]
		if b < 0x80 {
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	panic("mc: truncated state encoding")
}

// varintAt is binary.Varint (zigzag) at offset i.
func varintAt(s []byte, i int) (int64, int) {
	ux, n := uvarintAt(s, i)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, n
}

// decodeState rehydrates src, produced by appendState, into dst, which
// has the layout of src's program (newState). A buffer longer than its
// thread's region is not a state of that program and panics.
func decodeState(dst *state, src []byte) {
	pos := 0
	var u uint64
	var v int64
	for i := range dst.pc {
		u, pos = uvarintAt(src, pos)
		dst.pc[i] = int(u)
		u, pos = uvarintAt(src, pos)
		dst.wait[i] = int(u)
		dst.armed[i] = src[pos] != 0
		pos++
		u, pos = uvarintAt(src, pos)
		b := dst.bufs[i][:u]
		for j := range b {
			u, pos = uvarintAt(src, pos)
			b[j].addr = int(u)
			v, pos = varintAt(src, pos)
			b[j].val = int(v)
			u, pos = uvarintAt(src, pos)
			b[j].age = int(u)
		}
		dst.bufs[i] = b
		for r := range dst.regs[i] {
			v, pos = varintAt(src, pos)
			dst.regs[i][r] = int(v)
		}
	}
	for a := range dst.mem {
		v, pos = varintAt(src, pos)
		dst.mem[a] = int(v)
	}
	if pos != len(src) {
		panic("mc: trailing bytes in state encoding")
	}
}

// appendRegs encodes the per-thread register files alone — the compact
// form outcomes are accumulated in before orbit expansion and
// stringification (explore.go).
func appendRegs(dst []byte, regs [][]int) []byte {
	for _, rf := range regs {
		for _, r := range rf {
			dst = binary.AppendVarint(dst, int64(r))
		}
	}
	return dst
}

// decodeRegs is the inverse of appendRegs: it fills dst, already
// shaped as the program's register files, from src.
func decodeRegs(dst [][]int, src []byte) {
	pos := 0
	var v int64
	for _, rf := range dst {
		for r := range rf {
			v, pos = varintAt(src, pos)
			rf[r] = int(v)
		}
	}
}
