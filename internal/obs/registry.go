package obs

import "sync"

// Registry holds a shard's metric collectors: callbacks sampled at
// snapshot time that fold a component's counters into the snapshot.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Sample)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCollector adds a snapshot-time sampling callback. Collectors
// run in registration order on the goroutine taking the snapshot, so a
// component's collector may freely read its own unsynchronised state
// as long as snapshots are taken from the goroutine driving it.
func (r *Registry) RegisterCollector(f func(*Sample)) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

// Snapshot captures everything the collectors sample, as one Snapshot
// stamped (seq, t).
func (r *Registry) Snapshot(seq, t int64, final bool) Snapshot {
	s := Snapshot{
		Seq:        seq,
		T:          t,
		Final:      final,
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	collectors := make([]func(*Sample), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	sample := Sample{snap: &s}
	for _, f := range collectors {
		f(&sample)
	}
	return s
}

// Sample is the sink a collector folds a component's counters into.
// Repeated adds under one name accumulate, so several components can
// contribute to a shared series.
type Sample struct {
	snap *Snapshot
}

// Counter adds v to the named cumulative series.
func (s *Sample) Counter(name string, v int64) {
	s.snap.Counters[name] += v
}

// Gauge adds v to the named point-in-time series (per-shard gauges sum
// across shards in merged snapshots).
func (s *Sample) Gauge(name string, v float64) {
	s.snap.Gauges[name] += v
}

// Histogram folds hs into the named histogram series. It lets a
// component that already maintains its own distribution (for example
// the hierarchy's latency profile) publish it at snapshot time with
// zero hot-path cost.
func (s *Sample) Histogram(name string, hs HistogramSnapshot) {
	if cur, ok := s.snap.Histograms[name]; ok {
		cur.Merge(hs)
		s.snap.Histograms[name] = cur
		return
	}
	s.snap.Histograms[name] = hs.Clone()
}

// LatencyBounds returns the standard request-latency bucket bounds in
// nanoseconds (10µs to 100ms, roughly logarithmic) used by the
// hierarchy's page-latency histogram.
func LatencyBounds() []int64 {
	return []int64{
		10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000,
		50_000_000, 100_000_000,
	}
}
