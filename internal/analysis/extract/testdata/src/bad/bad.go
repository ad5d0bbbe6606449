// Package bad holds deliberately unmodelable annotated functions: the
// extract tests assert that each is conservatively REJECTED with a
// diagnostic naming the construct, never silently mistranslated.
package bad

import "sync/atomic"

//tbtso:property pair=bad forbid writer.v == 0 && reader.v == 0

var v atomic.Uint64

// Conditional control flow over a shared access: the abstract programs
// are straight-line, so this must be rejected.
//
//tbtso:verify pair=bad role=writer
func CondWriter() uint64 {
	if v.Load() == 0 {
		v.Store(1)
	}
	return v.Load()
}

// A channel send carrying a shared load: unmodelable statement kind.
//
//tbtso:verify pair=bad role=reader
func ChannelReader(ch chan uint64) uint64 {
	ch <- v.Load()
	return v.Load()
}

//tbtso:property pair=bad-nonconst forbid writer.v == 1

// A store of a non-constant value with no //tbtso:model val directive.
//
//tbtso:verify pair=bad-nonconst role=writer
func NonConstWriter(n uint64) uint64 {
	v.Store(n)
	return v.Load()
}

//tbtso:verify pair=bad-nonconst role=reader
func OKReader() uint64 {
	return v.Load()
}

// A misspelt //tbtso:shared must be reported, not silently leave the
// variable unmodeled.
//
//tbtso:sharde
var plain uint64
