package machalg

import (
	"slices"
	"testing"

	"tbtso/internal/tso"
)

func TestAllocatorAllocFree(t *testing.T) {
	m := tso.New(tso.Config{Policy: tso.DrainEager, Seed: 1})
	a := NewAllocator(m, 4, nodeWords)
	o1 := a.Alloc()
	o2 := a.Alloc()
	if o1 == 0 || o2 == 0 || o1 == o2 {
		t.Fatalf("bad allocations: %d, %d", o1, o2)
	}
	if o2-o1 != nodeWords {
		t.Fatalf("objects not adjacent: %d, %d", o1, o2)
	}
	a.Free(o1)
	if a.LiveObjects() != 1 {
		t.Fatalf("LiveObjects = %d, want 1", a.LiveObjects())
	}
	o3 := a.Alloc()
	if o3 != o1 {
		t.Fatalf("LIFO freelist should reuse %d, got %d", o1, o3)
	}
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	m := tso.New(tso.Config{Seed: 1})
	a := NewAllocator(m, 2, nodeWords)
	a.Alloc()
	a.Alloc()
	if got := a.Alloc(); got != 0 {
		t.Fatalf("exhausted pool returned %d, want 0", got)
	}
}

func TestAllocatorDoubleFreeDetected(t *testing.T) {
	m := tso.New(tso.Config{Seed: 1})
	a := NewAllocator(m, 2, nodeWords)
	o := a.Alloc()
	a.Free(o)
	a.Free(o)
	v := a.Violations()
	if len(v) != 1 || v[0].Kind != "free" {
		t.Fatalf("double free not detected: %v", v)
	}
}

func TestAllocatorDetectsUseAfterFree(t *testing.T) {
	a := runUAFProgram(t, func(th *tso.Thread, obj tso.Addr, a *Allocator) {
		a.Free(obj)
		_ = th.Load(obj) // load from freed object
	})
	v := a.Violations()
	if len(v) == 0 || v[0].Kind != "load" {
		t.Fatalf("UAF load not detected: %v", v)
	}
}

func TestAllocatorDetectsLateCommit(t *testing.T) {
	// A store buffered before the free that commits after it must be
	// flagged — this is the precise hazard the Δ bound prevents.
	a := runUAFProgram(t, func(th *tso.Thread, obj tso.Addr, a *Allocator) {
		th.Store(obj, 7) // buffered (adversarial policy: never drains early)
		a.Free(obj)
		th.Fence() // forces the buffered store to commit into freed memory
	})
	found := false
	for _, v := range a.Violations() {
		if v.Kind == "commit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("late commit into freed object not detected: %v", a.Violations())
	}
}

func TestAllocatorIgnoresBufferForwardedLoads(t *testing.T) {
	// After the free, a load the thread's own buffer forwards touches no
	// memory and is not a violation; the same load served from memory
	// once the fence has drained the buffer is.
	a := runUAFProgram(t, func(th *tso.Thread, obj tso.Addr, a *Allocator) {
		a.Free(obj)
		th.Store(obj, 7) // buffered (adversarial policy: never drains early)
		_ = th.Load(obj) // forwarded from the buffer
		th.Fence()
		_ = th.Load(obj) // from memory
	})
	var kinds []string
	for _, v := range a.Violations() {
		kinds = append(kinds, v.Kind)
	}
	if want := []string{"store", "commit", "load"}; !slices.Equal(kinds, want) {
		t.Fatalf("violation kinds %v, want %v", kinds, want)
	}
}

func runUAFProgram(t *testing.T, body func(*tso.Thread, tso.Addr, *Allocator)) *Allocator {
	t.Helper()
	m := tso.New(tso.Config{Policy: tso.DrainAdversarial, Seed: 1})
	a := NewAllocator(m, 2, nodeWords)
	m.Spawn("t", func(th *tso.Thread) {
		obj := a.Alloc()
		th.Fence()
		body(th, obj, a)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	return a
}
