package extract

import (
	"bytes"
	"encoding/json"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// TestPerfettoTracesAnnounceRunOnce: a replayed counterexample's trace
// and a fuzz artifact's trace name the process once and each thread
// once — the machine announces the run, so a caller announcing it too
// would duplicate every metadata event.
func TestPerfettoTracesAnnounceRunOnce(t *testing.T) {
	prog := mc.Program{
		Threads: [][]mc.Op{
			{mc.St(0, 1), mc.Ld(1, 0)},
			{mc.St(1, 1), mc.Ld(2, 0)},
			{mc.St(2, 1), mc.Ld(0, 0)},
		},
		Vars: 3, Regs: 1,
	}
	sched := &fuzz.Schedule{Policy: tso.DrainAdversarial, MachSeed: 1}
	traces := map[string]func(w *bytes.Buffer) error{
		"counterexample": func(w *bytes.Buffer) error {
			c := Counterexample{Pair: "sb3", Delta: 1, Schedule: sched, Program: prog}
			return c.PerfettoTrace(w)
		},
		"artifact": func(w *bytes.Buffer) error {
			a := fuzz.Artifact{Mismatch: fuzz.Mismatch{Kind: fuzz.KindSampledOutcome, Delta: 1, Schedule: sched, Program: prog}}
			return a.PerfettoTrace(w)
		},
	}
	for name, write := range traces {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Tid  int    `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		process := 0
		threads := map[int]int{}
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.Ph == "M" && ev.Name == "process_name":
				process++
			case ev.Ph == "M" && ev.Name == "thread_name":
				threads[ev.Tid]++
			}
		}
		if process != 1 {
			t.Errorf("%s: %d process_name events, want 1", name, process)
		}
		if len(threads) != len(prog.Threads) {
			t.Errorf("%s: thread_name events for %d threads, want %d", name, len(threads), len(prog.Threads))
		}
		for tid, n := range threads {
			if n != 1 {
				t.Errorf("%s: thread %d named %d times, want once", name, tid, n)
			}
		}
	}
}
