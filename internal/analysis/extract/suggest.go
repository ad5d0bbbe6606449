package extract

import (
	"fmt"

	"tbtso/internal/mc"
)

// Fence suggestion: for a pair whose property is violated, search the
// smallest set of Fence insertions that makes the property hold on
// PLAIN TSO (Δ=0). Plain TSO admits a superset of every TBTSO[Δ]'s
// behaviours for the same program, so a fence set that closes the Δ=0
// violation closes every swept bound too — one exploration per
// candidate decides the whole sweep. This is the classic trade the
// paper quantifies from the other side: the suggested fences are
// exactly what the fence-free algorithms deleted in exchange for the
// slow path's Δ wait.

// FencePoint is one suggested insertion: a Fence before the role's
// abstract op at Index (Before renders that op for humans).
type FencePoint struct {
	Role   string `json:"role"`
	Index  int    `json:"index"`
	Before string `json:"before"`
}

// Suggestion is one minimal fence set restoring plain-TSO soundness.
type Suggestion struct {
	Fences []FencePoint `json:"fences"`
}

// SuggestFences searches single insertions, then pairs of insertions,
// and returns every minimal set found (empty if even two fences cannot
// close the violation). Reader insertions apply to every reader copy.
func SuggestFences(p *Pair, opt Options) ([]Suggestion, error) {
	if p.Failed {
		return nil, fmt.Errorf("pair %s failed extraction; see diagnostics", p.Name)
	}
	opt = opt.withDefaults()

	holds := func(wIns, rIns []int) (bool, error) {
		prog := instantiateWithFences(p, wIns, rIns, 1)
		res, err := mc.ExploreParallel(prog, 0, mc.Options{MaxStates: opt.MaxStates})
		if err != nil {
			return false, fmt.Errorf("pair %s: %w", p.Name, err)
		}
		for _, o := range res.List() {
			if p.Forbidden(o) {
				return false, nil
			}
		}
		return true, nil
	}

	ok, err := holds(nil, nil)
	if err != nil {
		return nil, err
	}
	if ok {
		return nil, fmt.Errorf("pair %s already holds on plain TSO; nothing to suggest", p.Name)
	}

	type cand struct {
		role string
		idx  int
		ops  []AbsOp
	}
	var cands []cand
	for _, rc := range []struct {
		role string
		ops  []AbsOp
	}{{RoleWriter, p.WriterOps}, {RoleReader, p.ReaderOps}} {
		// Useful slots sit strictly between two ops, not adjacent to an
		// existing fence: a fence before the first op or after the last
		// cannot order anything, and doubling a fence never helps.
		for i := 1; i < len(rc.ops); i++ {
			if rc.ops[i-1].Kind == mc.OpFence || rc.ops[i].Kind == mc.OpFence {
				continue
			}
			cands = append(cands, cand{role: rc.role, idx: i, ops: rc.ops})
		}
	}

	point := func(c cand) FencePoint {
		return FencePoint{Role: c.role, Index: c.idx, Before: c.ops[c.idx].String()}
	}
	split := func(cs ...cand) (w, r []int) {
		for _, c := range cs {
			if c.role == RoleWriter {
				w = append(w, c.idx)
			} else {
				r = append(r, c.idx)
			}
		}
		return
	}

	var out []Suggestion
	for _, c := range cands {
		w, r := split(c)
		ok, err := holds(w, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, Suggestion{Fences: []FencePoint{point(c)}})
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			w, r := split(cands[i], cands[j])
			ok, err := holds(w, r)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, Suggestion{Fences: []FencePoint{point(cands[i]), point(cands[j])}})
			}
		}
	}
	return out, nil
}

// instantiateWithFences lowers the pair like Pair.Instantiate with
// extra Fence ops inserted before the named abstract-op indices.
func instantiateWithFences(p *Pair, wIns, rIns []int, wait int) mc.Program {
	insert := func(ops []AbsOp, at []int) []AbsOp {
		if len(at) == 0 {
			return ops
		}
		mark := make(map[int]bool, len(at))
		for _, i := range at {
			mark[i] = true
		}
		out := make([]AbsOp, 0, len(ops)+len(at))
		for i, op := range ops {
			if mark[i] {
				out = append(out, AbsOp{Kind: mc.OpFence})
			}
			out = append(out, op)
		}
		return out
	}
	mod := &Pair{
		Name:       p.Name,
		Copies:     p.Copies,
		Vars:       p.Vars,
		WriterOps:  insert(p.WriterOps, wIns),
		ReaderOps:  insert(p.ReaderOps, rIns),
		WriterRegs: p.WriterRegs,
		ReaderRegs: p.ReaderRegs,
	}
	return mod.Instantiate(wait)
}
