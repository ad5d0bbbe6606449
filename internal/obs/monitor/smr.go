package monitor

import (
	"fmt"

	"tbtso/internal/obs"
	"tbtso/internal/tso"
)

// Registry names the SMR visibility monitor publishes under.
const (
	// MetricSMRPublishes counts committed hazard publications.
	MetricSMRPublishes = "monitor.smr.publishes"
	// MetricSMRClears counts committed hazard clears.
	MetricSMRClears = "monitor.smr.clears"
	// MetricSMRPublished gauges currently-published hazard slots.
	MetricSMRPublished = "monitor.smr.published"
)

// SMRVisibility watches a machine address range holding hazard-pointer
// slots and checks the §4 visibility condition FFHP's safety rests on:
// a hazard publication must become globally visible (commit) within
// the expected bound of its issue, because the reclaimer's scan only
// waits that long before trusting what it read. A publication that
// outstays the bound is exactly the window in which a scan can miss
// the hazard and free a node the reader is dereferencing.
//
// The monitor is configured with the hazard slot range after the
// domain that owns the slots is built: callers pass it through
// SetHazardRange (machalg.HPDomain exposes SlotRange for this, and its
// demos forward the range to any attached sink implementing the
// SetHazardRange method — see machalg.ReclaimRaceDemo).
//
// The bound follows the Residency rule: the configured value, or the
// run's Δ when configured as 0; no expectation when both are 0.
type SMRVisibility struct {
	rec       recorder
	bound     uint64
	effective uint64
	base      tso.Addr
	n         int
	vals      []tso.Word // last committed value per slot
	pubs      *obs.Counter
	clears    *obs.Counter
	published *obs.Gauge
}

// NewSMRVisibility returns an SMR visibility monitor publishing into
// reg (nil for a private registry). bound is the expected visibility
// bound in ticks; 0 means inherit each run's Δ. The monitor is inert
// until SetHazardRange tells it which addresses are hazard slots.
func NewSMRVisibility(reg *obs.Registry, bound uint64) *SMRVisibility {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &SMRVisibility{
		rec:       recorder{name: "smr-visibility"},
		bound:     bound,
		pubs:      reg.Counter(MetricSMRPublishes),
		clears:    reg.Counter(MetricSMRClears),
		published: reg.Gauge(MetricSMRPublished),
	}
}

// Name implements Monitor.
func (m *SMRVisibility) Name() string { return m.rec.name }

// SetHazardRange declares [base, base+n) as the hazard slot addresses
// to watch. Call before (or at the start of) the run.
func (m *SMRVisibility) SetHazardRange(base tso.Addr, n int) {
	m.base, m.n = base, n
	m.vals = make([]tso.Word, n)
}

// BeginRun implements tso.RunObserver.
func (m *SMRVisibility) BeginRun(names []string, delta uint64) {
	m.effective = m.bound
	if m.effective == 0 {
		m.effective = delta
	}
	for i := range m.vals {
		m.vals[i] = 0
	}
	m.published.Set(0)
}

// Emit implements tso.Sink: it reacts to commits landing in the
// hazard range, tracking slot occupancy and checking publication
// residency against the bound.
//
//tbtso:fencefree
func (m *SMRVisibility) Emit(e tso.Event) {
	if e.Kind != tso.EvCommit || e.Addr < m.base || e.Addr >= m.base+tso.Addr(m.n) {
		return
	}
	slot := int(e.Addr - m.base)
	was, now := m.vals[slot], e.Val
	m.vals[slot] = now
	switch {
	case was == 0 && now != 0:
		m.pubs.Inc()
		m.published.Add(1)
	case was != 0 && now == 0:
		m.clears.Inc()
		m.published.Add(-1)
	case was != 0 && now != 0:
		m.pubs.Inc() // re-publication over a live slot
	}
	if now != 0 && m.effective != 0 {
		if lat := e.Tick - e.Enq; lat > m.effective {
			m.rec.record(Violation{
				Thread: e.Thread, Enq: e.Enq, Tick: e.Tick,
				Detail: fmt.Sprintf("hazard publication slot[%d]=%d visible only after %d ticks, bound %d — a reclaim scan could have missed it",
					slot, now, lat, m.effective),
				Event: e.String(),
			})
		}
	}
}

// Violations implements Monitor.
func (m *SMRVisibility) Violations() []Violation { return m.rec.violations() }
