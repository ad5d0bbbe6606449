package mc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestProgramWireGolden pins Program's JSON bytes, which every
// committed certificate, counterexample, checkpoint and fuzz artifact
// holds: a change here strands them all, so the expected bytes are
// edited by hand, never regenerated. A program without threads encodes
// "threads": null and an empty thread [], whether nil or not.
func TestProgramWireGolden(t *testing.T) {
	all := Program{Vars: 2, Regs: 2, Threads: [][]Op{
		{St(0, 1), Ld(1, 0), Fence()}, nil, {RMW(1, -2, 1), Wait(3)},
	}}
	for _, tc := range []struct {
		name string
		p    Program
		want string
		back Program // what decoding want yields
	}{
		{"all kinds", all,
			`{"vars":2,"regs":2,"threads":[[{"kind":"st","val":1},{"kind":"ld","addr":1},{"kind":"fence"}],[],[{"kind":"rmw","addr":1,"val":-2,"reg":1},{"kind":"wait","val":3}]]}`,
			Program{Vars: 2, Regs: 2, Threads: [][]Op{all.Threads[0], {}, all.Threads[2]}}},
		{"no threads", Program{Vars: 1}, `{"vars":1,"regs":0,"threads":null}`, Program{Vars: 1}},
		{"empty threads", Program{Vars: 1, Threads: [][]Op{}}, `{"vars":1,"regs":0,"threads":null}`, Program{Vars: 1}},
	} {
		got, err := json.Marshal(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: encodes\n %s\nwant\n %s", tc.name, got, tc.want)
		}
		var back Program
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("%s: decoding its own bytes: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.back) {
			t.Errorf("%s: round trip gives %+v, want %+v", tc.name, back, tc.back)
		}
	}
}

// TestProgramWireRejects: a program whose ops the engines would index
// out of range, or whose kinds they do not know, fails to decode with
// an error naming the op, instead of panicking later in a run.
func TestProgramWireRejects(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{`{"vars":1,"regs":1,"threads":[[{"kind":"st"},{"kind":"xchg"}]]}`, `thread 0 op 1: unknown kind "xchg"`},
		{`{"vars":1,"regs":1,"threads":[[{"addr":0}]]}`, "thread 0 op 0: no kind"},
		{`{"vars":-1,"regs":1,"threads":null}`, "-1 vars"},
		{`{"vars":1,"regs":-2,"threads":null}`, "-2 regs"},
		{`{"vars":1,"regs":1,"threads":[[],[{"kind":"st","addr":5,"val":1}]]}`, "thread 1 op 0: address 5 outside [0, 1)"},
		{`{"vars":1,"regs":1,"threads":[[{"kind":"ld","addr":-1}]]}`, "thread 0 op 0: address -1 outside [0, 1)"},
		{`{"vars":2,"regs":1,"threads":[[{"kind":"fence"},{"kind":"rmw","addr":1,"val":1,"reg":1}]]}`, "thread 0 op 1: register 1 outside [0, 1)"},
		{`{"vars":2,"regs":1,"threads":[[{"kind":"ld","reg":-1}]]}`, "thread 0 op 0: register -1 outside [0, 1)"},
	} {
		var p Program
		err := json.Unmarshal([]byte(tc.doc), &p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decoding %s: got error %v, want one containing %q", tc.doc, err, tc.want)
		}
	}
	// Fences and waits name no address or register, so theirs are ignored.
	var p Program
	if err := json.Unmarshal([]byte(`{"vars":0,"regs":0,"threads":[[{"kind":"fence","addr":9},{"kind":"wait","val":2,"reg":4}]]}`), &p); err != nil {
		t.Errorf("a fence and a wait with stray fields: %v", err)
	}
}
