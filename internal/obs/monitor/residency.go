package monitor

import (
	"fmt"
	"sync"

	"tbtso/internal/obs"
	"tbtso/internal/tso"
)

// Registry names the residency monitor publishes under.
const (
	// MetricResidency is the commit-latency histogram (ticks a store
	// stayed buffered), as observed by the monitor.
	MetricResidency = "monitor.residency_ticks"
	// MetricResidencyViolations counts commits whose residency
	// exceeded the monitored bound.
	MetricResidencyViolations = "monitor.residency.violations"
	// MetricResidencyMaxPrefix + "T<i>" is thread i's max-residency
	// gauge, reset at every BeginRun.
	MetricResidencyMaxPrefix = "monitor.residency.max_ticks."
)

// maxKept bounds how many Violations the monitor retains verbatim;
// beyond it only the count grows, so a hopelessly broken run cannot
// make its own monitoring OOM.
const maxKept = 32

// Residency is the Δ-residency monitor: it checks, on every commit
// event, that the store's residency (commit tick − enqueue tick) is
// within the expected bound — the paper's central temporal invariant,
// verified continuously on the live stream instead of only offline.
//
// The expected bound is the configured one, or, when configured as 0,
// the run's own Δ announced via BeginRun. If both are 0 the machine is
// plain TSO with no expectation and the monitor only records gauges
// and the histogram — unbounded TSO cannot violate a bound it never
// promised. Configuring a nonzero bound against a plain-TSO machine is
// exactly how the planted negative controls are caught: the machine
// makes no Δ promise, the algorithm under test assumes one, and the
// monitor reports every commit that betrays the assumption.
type Residency struct {
	bound     uint64 // configured; 0 = inherit the run's Δ
	effective uint64
	hist      *obs.Histogram
	viol      *obs.Counter
	reg       *obs.Registry
	maxRes    []*obs.Gauge
	maxVal    []uint64

	// mu guards the violation store; recording is off the hot path by
	// definition.
	mu    sync.Mutex
	kept  []Violation
	total uint64
}

// NewResidency returns a residency monitor publishing into reg (nil
// for a private registry). bound is the expected Δ in ticks; 0 means
// inherit each run's configured Δ.
func NewResidency(reg *obs.Registry, bound uint64) *Residency {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Residency{
		bound: bound,
		reg:   reg,
		hist:  reg.Histogram(MetricResidency, obs.CommitLatencyBuckets()),
		viol:  reg.Counter(MetricResidencyViolations),
	}
}

// Bound reports the bound in force for the current run (0 until the
// first BeginRun when configured to inherit).
func (m *Residency) Bound() uint64 { return m.effective }

// BeginRun implements tso.RunObserver: it resolves the effective bound
// and resets the per-thread max-residency gauges. Violations and the
// histogram accumulate across runs — a monitored suite reports once at
// the end.
func (m *Residency) BeginRun(names []string, delta uint64) {
	m.effective = m.bound
	if m.effective == 0 {
		m.effective = delta
	}
	for len(m.maxRes) < len(names) {
		i := len(m.maxRes)
		m.maxRes = append(m.maxRes, m.reg.Gauge(fmt.Sprintf("%sT%d", MetricResidencyMaxPrefix, i)))
		m.maxVal = append(m.maxVal, 0)
	}
	for i := range m.maxVal {
		m.maxVal[i] = 0
		m.maxRes[i].Set(0)
	}
}

// Emit implements tso.Sink. Commit events carry their enqueue tick, so
// the check is one subtraction and one compare — allocation-free.
//
//tbtso:fencefree
func (m *Residency) Emit(e tso.Event) {
	if e.Kind != tso.EvCommit {
		return
	}
	lat := e.Tick - e.Enq
	m.hist.Observe(int64(lat))
	if e.Thread >= 0 && e.Thread < len(m.maxVal) && lat > m.maxVal[e.Thread] {
		m.maxVal[e.Thread] = lat
		m.maxRes[e.Thread].Set(int64(lat))
	}
	if m.effective != 0 && lat > m.effective {
		m.viol.Inc()
		m.record(Violation{
			Thread: e.Thread, Enq: e.Enq, Tick: e.Tick,
			Detail: fmt.Sprintf("store [%d]=%d stayed buffered %d ticks, bound %d",
				e.Addr, e.Val, lat, m.effective),
			Event: e.String(),
		})
	}
}

func (m *Residency) record(v Violation) {
	v.Monitor = "residency"
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total++
	if len(m.kept) < maxKept {
		m.kept = append(m.kept, v)
	}
}

// Violations returns everything recorded so far: at most maxKept
// entries, plus an overflow marker counting the rest.
func (m *Residency) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]Violation(nil), m.kept...)
	if extra := m.total - uint64(len(out)); extra > 0 {
		out = append(out, Violation{Monitor: "residency", Thread: -1,
			Detail: fmt.Sprintf("... and %d further violations not retained", extra)})
	}
	return out
}
