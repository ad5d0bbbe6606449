package mc

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// This file is Program's JSON form, the one every artifact that carries
// a program uses: fuzz artifacts and checkpoints, certificates,
// counterexamples and verify-progress fingerprints. Its bytes are
// pinned by TestProgramWireGolden.
//
//	{"vars":2,"regs":1,"threads":[[{"kind":"st","val":1},{"kind":"ld","addr":1}]]}
//
// Zero addr, val and reg fields are omitted.

// opNames are the op kinds' wire names, indexed by OpKind.
var opNames = [...]string{OpStore: "st", OpLoad: "ld", OpFence: "fence", OpRMW: "rmw", OpWait: "wait"}

// MarshalText renders k as its wire name.
func (k OpKind) MarshalText() ([]byte, error) {
	if k < 0 || int(k) >= len(opNames) {
		return nil, fmt.Errorf("mc: unknown op kind %d", k)
	}
	return []byte(opNames[k]), nil
}

// UnmarshalText parses a wire name.
func (k *OpKind) UnmarshalText(b []byte) error {
	i := slices.Index(opNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("unknown kind %q", b)
	}
	*k = OpKind(i)
	return nil
}

// programWire fixes the field order and names. Decoding reads each op as
// a json.RawMessage first, so that an error can name the op it is in.
type programWire[T any] struct {
	Vars    int   `json:"vars"`
	Regs    int   `json:"regs"`
	Threads [][]T `json:"threads"`
}

// MarshalJSON encodes p in the wire form. A program without threads
// encodes "threads": null, and an empty thread encodes [].
func (p Program) MarshalJSON() ([]byte, error) {
	w := programWire[Op]{Vars: p.Vars, Regs: p.Regs}
	for _, th := range p.Threads {
		if th == nil {
			th = []Op{}
		}
		w.Threads = append(w.Threads, th)
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form and rejects a malformed program:
// a missing or unknown op kind, negative vars or regs, or an address or
// register out of range. The error names the thread and op.
func (p *Program) UnmarshalJSON(b []byte) error {
	var w programWire[json.RawMessage]
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	q := Program{Vars: w.Vars, Regs: w.Regs}
	if q.Vars < 0 || q.Regs < 0 {
		return fmt.Errorf("mc: program has %d vars and %d regs", q.Vars, q.Regs)
	}
	for ti, th := range w.Threads {
		ops := make([]Op, len(th))
		for i, raw := range th {
			ops[i].Kind = -1 // stays invalid if the op names no kind
			err := json.Unmarshal(raw, &ops[i])
			if err == nil {
				err = q.checkOp(ops[i])
			}
			if err != nil {
				return fmt.Errorf("mc: thread %d op %d: %w", ti, i, err)
			}
		}
		q.Threads = append(q.Threads, ops)
	}
	*p = q
	return nil
}

// checkOp reports a missing kind, or an address or register of op
// outside p's shape.
func (p Program) checkOp(op Op) error {
	if op.Kind < 0 {
		return errors.New("no kind")
	}
	switch op.Kind {
	case OpStore, OpLoad, OpRMW:
		if op.Addr < 0 || op.Addr >= p.Vars {
			return fmt.Errorf("address %d outside [0, %d)", op.Addr, p.Vars)
		}
	}
	switch op.Kind {
	case OpLoad, OpRMW:
		if op.Reg < 0 || op.Reg >= p.Regs {
			return fmt.Errorf("register %d outside [0, %d)", op.Reg, p.Regs)
		}
	}
	return nil
}
