package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"tbtso/internal/tso"
)

// rawTraceEvent mirrors the trace-event JSON for validation.
type rawTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	ID   uint64         `json:"id"`
	Args map[string]any `json:"args"`
}

type rawDoc struct {
	TraceEvents     []rawTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// ValidatePerfettoJSON checks the shape the trace viewers require:
// a traceEvents array whose entries all carry ph/pid/tid, balanced
// store→commit flow pairs, and drain causes on commit slices. Shared
// with the CLI smoke test via the exported helper below.
func ValidatePerfettoJSON(data []byte) (doc rawDoc, err error) {
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, err
	}
	return doc, nil
}

func exportSmallRun(t *testing.T) []byte {
	t.Helper()
	perf := NewPerfetto()
	runMachine(t, tso.Config{Delta: 25, Policy: tso.DrainRandom, Seed: 5}, perf)
	var buf bytes.Buffer
	if err := perf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPerfettoShape(t *testing.T) {
	data := exportSmallRun(t)
	doc, err := ValidatePerfettoJSON(data)
	if err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	var starts, finishes, commits, stores, meta int
	threadNames := map[int]string{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing ph/pid/tid: %+v", i, ev)
		}
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name == "thread_name" {
				threadNames[*ev.Tid] = ev.Args["name"].(string)
			}
		case "s":
			starts++
		case "f":
			finishes++
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("complete event %d with nonpositive dur: %+v", i, ev)
			}
			switch ev.Cat {
			case "commit":
				commits++
				cause, ok := ev.Args["cause"].(string)
				if !ok || cause == "" {
					t.Fatalf("commit slice %d missing drain cause: %+v", i, ev)
				}
				if _, ok := ev.Args["latency_ticks"]; !ok {
					t.Fatalf("commit slice %d missing latency: %+v", i, ev)
				}
			case "store":
				stores++
			}
		case "C":
			if _, ok := ev.Args["stores"]; !ok {
				t.Fatalf("counter event %d missing value: %+v", i, ev)
			}
		}
	}
	if meta < 3 { // process_name + 2 thread_name
		t.Fatalf("expected process+thread metadata, got %d events", meta)
	}
	if threadNames[0] != "T0 writer" || threadNames[1] != "T1 reader" {
		t.Fatalf("thread names wrong: %v", threadNames)
	}
	if stores == 0 || commits == 0 {
		t.Fatalf("trace has %d stores, %d commits", stores, commits)
	}
	if stores != commits {
		t.Fatalf("%d store slices but %d commit slices", stores, commits)
	}
	// Every store's flow must terminate: the run flushes all buffers.
	if starts == 0 || starts != finishes {
		t.Fatalf("flow arrows unbalanced: %d starts, %d finishes", starts, finishes)
	}
	if starts != stores {
		t.Fatalf("%d flow starts for %d stores", starts, stores)
	}
}

func TestPerfettoFlowLatencyMatchesTicks(t *testing.T) {
	// A directed run: adversarial drains, one buffered store forced out
	// by the Δ bound. The flow arrow must span the commit latency.
	perf := NewPerfetto()
	m := tso.New(tso.Config{Delta: 20, Policy: tso.DrainAdversarial, Seed: 1, Sinks: []tso.Sink{perf}})
	a := m.AllocWords(1)
	m.Spawn("w", func(th *tso.Thread) {
		th.Store(a, 7)
		for i := 0; i < 30; i++ {
			th.Yield()
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	var buf bytes.Buffer
	if err := perf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ValidatePerfettoJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sTs, fTs float64 = -1, -1
	var lat float64 = -1
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			sTs = ev.Ts
		case "f":
			fTs = ev.Ts
		case "X":
			if ev.Cat == "commit" {
				lat = ev.Args["latency_ticks"].(float64)
			}
		}
	}
	if sTs < 0 || fTs < 0 || lat < 0 {
		t.Fatalf("missing flow or commit (s=%v f=%v lat=%v)", sTs, fTs, lat)
	}
	if fTs-sTs != lat {
		t.Fatalf("flow spans %v ticks but commit latency is %v", fTs-sTs, lat)
	}
}
