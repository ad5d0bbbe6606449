package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans form two-level trees: a root (one campaign program,
// one mc-scale pass, one paper round) and the calls made for it, which
// share the root's PID, TID and ID and never overlap each other.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"` // program seed, pass or round index
	Root   bool   `json:"root,omitempty"`
	PID    int    `json:"pid"` // the child process, numbered by the parent
	TID    int    `json:"tid"`
	Start  int64  `json:"start_ns"` // from the recorder's origin
	Dur    int64  `json:"dur_ns"`
	States int    `json:"states,omitempty"`
	Runs   int    `json:"runs,omitempty"`
}

// recorder keeps one goroutine's spans in memory.
type recorder struct {
	origin time.Time
	tid    int
	spans  []span
}

func (r *recorder) now() int64 { return since(r.origin) }

// end closes the span that began at start (a value from now).
func (r *recorder) end(name string, id, start int64, root bool, states, runs int) {
	r.spans = append(r.spans, span{
		Name: name, ID: id, Root: root, TID: r.tid,
		Start: start, Dur: r.now() - start, States: states, Runs: runs,
	})
}

// adopt numbers a child's spans as process pid and shifts them from the
// child's clock to the run's, given when the child started.
func adopt(spans []span, pid int, offset time.Duration) []span {
	for i := range spans {
		spans[i].PID = pid
		spans[i].Start += int64(offset)
	}
	return spans
}

// layerStat aggregates the spans of one layer.
type layerStat struct {
	self   int64 // span time not covered by child spans
	calls  int
	states int64
	durs   []int64
}

// selfTimes aggregates spans by name. A root's self time is its
// duration minus its children's; a child has no children of its own.
// busy is the total duration of the roots, which the self times of all
// layers, roots included, add up to.
func selfTimes(spans []span) (layers map[string]*layerStat, busy int64) {
	type key struct {
		pid, tid int
		id       int64
	}
	covered := map[key]int64{}
	for _, s := range spans {
		if !s.Root {
			covered[key{s.PID, s.TID, s.ID}] += s.Dur
		}
	}
	layers = map[string]*layerStat{}
	for _, s := range spans {
		l := layers[s.Name]
		if l == nil {
			l = &layerStat{}
			layers[s.Name] = l
		}
		self := s.Dur
		if s.Root {
			self -= covered[key{s.PID, s.TID, s.ID}]
			busy += s.Dur
		}
		l.self += self
		l.calls++
		l.states += int64(s.States)
		l.durs = append(l.durs, s.Dur)
	}
	return layers, busy
}

// layerMetrics writes <layer>.self_s, .share and .calls for each named
// layer, and .states, .p50_us and .p99_us for the detailed ones. A
// layer with no spans reports zeros.
func layerMetrics(m map[string]float64, layers map[string]*layerStat, busy int64, names, detailed []string) {
	get := func(name string) *layerStat {
		if l := layers[name]; l != nil {
			return l
		}
		return &layerStat{}
	}
	for _, name := range names {
		l := get(name)
		m[name+".self_s"] = float64(l.self) / 1e9
		m[name+".share"] = ratio(float64(l.self), float64(busy))
		m[name+".calls"] = float64(l.calls)
	}
	for _, name := range detailed {
		l := get(name)
		m[name+".states"] = float64(l.states)
		m[name+".p50_us"] = quantile(l.durs, 0.50) / 1e3
		m[name+".p99_us"] = quantile(l.durs, 0.99) / 1e3
	}
}

// quantile is the nearest-rank q-quantile of xs, 0 for none.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeChromeTrace writes spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing, with meta as the trace's otherData.
func writeChromeTrace(path string, spans []span, meta any) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`  // µs
		Dur  float64          `json:"dur"` // µs
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]int64{"id": s.ID}
		if s.States > 0 {
			args["states"] = int64(s.States)
		}
		if s.Runs > 0 {
			args["runs"] = int64(s.Runs)
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: s.PID, TID: s.TID, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "otherData": meta}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
