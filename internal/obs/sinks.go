package obs

import "tbtso/internal/tso"

// Machine metric names (with the drain-cause counters named
// "machine.drain.<cause>" per tso.DrainCause.String).
const (
	MetricStores        = "machine.stores"
	MetricLoads         = "machine.loads"
	MetricRMWs          = "machine.rmws"
	MetricFences        = "machine.fences"
	MetricCommits       = "machine.commits"
	MetricCommitLatency = "machine.commit_latency_ticks"
	MetricBufOccupancy  = "machine.buf_occupancy"
)

// CommitLatencyBuckets are the default tick buckets for the
// commit-latency histogram: exponential, covering sub-tick commits up
// to Δ values in the hundreds of thousands.
func CommitLatencyBuckets() []int64 { return ExpBuckets(1, 2, 20) }

// OccupancyBuckets are the default buckets for store-buffer depth.
func OccupancyBuckets() []int64 { return LinearBuckets(1, 1, 32) }

// MachineMetrics is a tso.Sink that folds the machine's event stream
// into a Registry: operation counters, the drain-cause breakdown, a
// commit-latency histogram and a store-buffer occupancy histogram
// (sampled at every enqueue). All metric handles are resolved once at
// construction, so Emit itself takes no locks and allocates nothing.
type MachineMetrics struct {
	stores, loads, rmws, fences, commits *Counter
	drains                               [tso.NumDrainCauses]*Counter
	latency                              *Histogram
	occupancy                            *Histogram
	depth                                []int // per-thread buffer depth
}

// NewMachineMetrics returns a sink publishing into reg under the
// "machine." metric names.
func NewMachineMetrics(reg *Registry) *MachineMetrics {
	m := &MachineMetrics{
		stores:    reg.Counter(MetricStores),
		loads:     reg.Counter(MetricLoads),
		rmws:      reg.Counter(MetricRMWs),
		fences:    reg.Counter(MetricFences),
		commits:   reg.Counter(MetricCommits),
		latency:   reg.Histogram(MetricCommitLatency, CommitLatencyBuckets()),
		occupancy: reg.Histogram(MetricBufOccupancy, OccupancyBuckets()),
	}
	for c := 0; c < tso.NumDrainCauses; c++ {
		m.drains[c] = reg.Counter("machine.drain." + tso.DrainCause(c).String())
	}
	return m
}

// BeginRun implements tso.RunObserver: it sizes the per-thread depth
// table so Emit never allocates.
func (m *MachineMetrics) BeginRun(names []string, delta uint64) {
	m.depth = make([]int, len(names))
}

// Emit implements tso.Sink on the model's fast path: counter bumps and
// two histogram observations, allocation-free.
//
//tbtso:fencefree
func (m *MachineMetrics) Emit(e tso.Event) {
	switch e.Kind {
	case tso.EvStore:
		m.stores.Inc()
		if e.Thread < len(m.depth) {
			m.depth[e.Thread]++
			m.occupancy.Observe(int64(m.depth[e.Thread]))
		}
	case tso.EvCommit:
		m.commits.Inc()
		m.drains[e.Cause].Inc()
		m.latency.Observe(int64(e.Tick - e.Enq))
		if e.Thread < len(m.depth) && m.depth[e.Thread] > 0 {
			m.depth[e.Thread]--
		}
	case tso.EvLoad:
		m.loads.Inc()
	case tso.EvRMW:
		m.rmws.Inc()
	case tso.EvFence:
		m.fences.Inc()
	}
}
