// Package obs is the simulator's deterministic observability layer: a
// metrics registry (counters, gauges, fixed-bound histograms) sampled
// from the components at snapshot time, and a structured decision-event
// trace with a bounded ring buffer. Both are timestamped in *simulated*
// time, never wall-clock time, so for a fixed (seed, shards) pair the
// complete observability output — every snapshot and every event — is
// bit-for-bit reproducible at any worker count and on any host.
//
// The design follows two rules:
//
//   - Disabled means free. Instrumented components hold a possibly-nil
//     *Observer and guard every hook with a nil check; with no observer
//     attached the hot paths pay a predictable untaken branch and
//     nothing else.
//   - One observer per shard. The sharded engine gives every shard its
//     own Observer (clocked by that shard's simulated clock), and the
//     merged report folds shards in index order, so merged output is
//     independent of goroutine scheduling. Cross-goroutine readers (the
//     live HTTP endpoint) only ever touch atomically-published
//     snapshots, never component state.
//
// Metrics come from collectors: callbacks sampled at snapshot time that
// fold a component's existing counters (its Stats struct) into the
// snapshot without any per-operation cost.
package obs

import (
	"sync/atomic"

	"flashdc/internal/sim"
)

// Options configures an Observer. The zero value enables nothing; a
// caller that wants observability sets at least Metrics or Trace.
type Options struct {
	// Metrics enables the metrics registry.
	Metrics bool
	// MetricsInterval takes a cumulative snapshot every interval of
	// simulated time (implies Metrics); 0 takes only the final
	// snapshot.
	MetricsInterval sim.Duration
	// Trace enables the decision-event tracer.
	Trace bool
	// TraceCapacity bounds the event ring buffer; 0 means
	// DefaultTraceCapacity. When the buffer overflows the oldest
	// events are dropped (and counted).
	TraceCapacity int
}

// Observer bundles the two observability sinks one simulation shard
// reports into. A nil *Observer is valid everywhere and records
// nothing — that nil check is the entire disabled-path overhead.
type Observer struct {
	// Metrics is the metrics registry, nil when disabled.
	Metrics *Registry
	// Trace is the decision-event tracer, nil when disabled.
	Trace *Tracer

	shard    int
	clock    *sim.Clock
	interval sim.Duration
	next     sim.Time
	seq      int64
	snaps    []Snapshot
	final    *Snapshot
	// live is the most recently completed snapshot, published for
	// concurrent readers (the HTTP exposition endpoint).
	live atomic.Pointer[Snapshot]
}

// New builds an Observer from the options. It never returns nil; the
// disabled sinks stay nil inside.
func New(o Options) *Observer {
	ob := &Observer{interval: o.MetricsInterval}
	if o.Metrics || o.MetricsInterval > 0 {
		ob.Metrics = NewRegistry()
	}
	if o.Trace {
		ob.Trace = NewTracer(o.TraceCapacity)
	}
	if ob.interval > 0 {
		ob.next = sim.Time(0).Add(ob.interval)
	}
	return ob
}

// Enabled reports whether o records anything at all.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Trace != nil)
}

// SetShard labels everything o records with a shard index (events
// carry it; the merged report uses it as a deterministic tie-break).
func (o *Observer) SetShard(i int) {
	if o != nil {
		o.shard = i
	}
}

// Shard returns the configured shard label.
func (o *Observer) Shard() int {
	if o == nil {
		return 0
	}
	return o.shard
}

// SetClock attaches the simulated clock events and snapshots are
// stamped from. Without a clock everything is stamped at the epoch.
func (o *Observer) SetClock(c *sim.Clock) {
	if o != nil {
		o.clock = c
	}
}

func (o *Observer) now() sim.Time {
	if o.clock != nil {
		return o.clock.Now()
	}
	return 0
}

// Event records a decision event, stamping it with the observer's
// simulated clock and shard label. A no-op without a tracer.
func (o *Observer) Event(e Event) {
	if o == nil || o.Trace == nil {
		return
	}
	e.T = int64(o.now())
	e.Shard = o.shard
	o.Trace.record(e)
}

// RegisterCollector registers a snapshot-time sampling callback on the
// metrics registry. A no-op without metrics.
func (o *Observer) RegisterCollector(f func(*Sample)) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.RegisterCollector(f)
}

// MaybeSnapshot takes one cumulative snapshot per MetricsInterval
// boundary the simulated clock has crossed since the last call. The
// caller invokes it from the simulation goroutine after advancing its
// clock; the fast path (no boundary crossed) is two compares.
func (o *Observer) MaybeSnapshot(now sim.Time) {
	if o == nil || o.Metrics == nil || o.interval <= 0 || now.Before(o.next) {
		return
	}
	for !now.Before(o.next) {
		s := o.Metrics.Snapshot(o.seq, int64(o.next), false)
		o.snaps = append(o.snaps, s)
		o.publish(s)
		o.seq++
		o.next = o.next.Add(o.interval)
	}
}

// Finish takes the final cumulative snapshot at the current simulated
// time. Calling it again replaces the previous final snapshot, so
// observing a run twice does not duplicate series. A no-op without
// metrics.
func (o *Observer) Finish() {
	if o == nil || o.Metrics == nil {
		return
	}
	s := o.Metrics.Snapshot(FinalSeq, int64(o.now()), true)
	o.final = &s
	o.publish(s)
}

func (o *Observer) publish(s Snapshot) {
	c := s.Clone()
	o.live.Store(&c)
}

// Live returns the most recently completed snapshot, or nil before the
// first one. Safe to call from any goroutine.
func (o *Observer) Live() *Snapshot {
	if o == nil {
		return nil
	}
	return o.live.Load()
}

// Snapshots returns the interval snapshots taken so far plus, after
// Finish, the final snapshot.
func (o *Observer) Snapshots() []Snapshot {
	if o == nil {
		return nil
	}
	out := make([]Snapshot, 0, len(o.snaps)+1)
	out = append(out, o.snaps...)
	if o.final != nil {
		out = append(out, *o.final)
	}
	return out
}

// Report is the merged observability output of a run: the snapshot
// series and the decision-event trace, both deterministic for a fixed
// (seed, shards) pair at any worker count.
type Report struct {
	// Snapshots is the merged cumulative snapshot series, interval
	// snapshots in Seq order followed by the final snapshot.
	Snapshots []Snapshot `json:"snapshots,omitempty"`
	// Events is the merged decision-event trace, ordered by simulated
	// time (shard index, then per-shard sequence break ties).
	Events []Event `json:"events,omitempty"`
	// DroppedEvents counts events lost to ring-buffer overflow across
	// all shards.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// BuildReport finalises every observer (taking its final snapshot at
// its own simulated clock) and merges their output in argument order.
// Nil observers are skipped; with none enabled the report is empty but
// non-nil.
func BuildReport(observers ...*Observer) *Report {
	rep := &Report{}
	var series [][]Snapshot
	var events [][]Event
	for _, o := range observers {
		if o == nil {
			continue
		}
		o.Finish()
		if o.Metrics != nil {
			series = append(series, o.Snapshots())
		}
		if o.Trace != nil {
			events = append(events, o.Trace.Events())
			rep.DroppedEvents += o.Trace.Dropped()
		}
	}
	rep.Snapshots = MergeSnapshots(series...)
	rep.Events = MergeEvents(events...)
	return rep
}
