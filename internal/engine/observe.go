package engine

import "flashdc/internal/obs"

// Observe finalises every shard's observer and merges their output in
// shard index order; the report is therefore identical for a fixed
// (seed, shards) pair at any worker count. Each shard contributes one
// shard_merge trace event (stamped at its own simulated end time) the
// first time Observe runs; further calls re-finalise without
// duplicating events or final snapshots. Returns an empty (non-nil)
// report when observability is disabled. Must not be called while a
// run is in flight.
func (e *Engine) Observe() *obs.Report {
	if !e.observed {
		e.observed = true
		for i, sh := range e.shards {
			if i < len(e.observers) {
				e.observers[i].Event(obs.Event{
					Kind:  obs.KindShardMerge,
					Block: -1,
					N:     sh.Stats().Requests,
				})
			}
		}
	}
	return obs.BuildReport(e.observers...)
}

// Observers returns the per-shard observability sinks (empty when
// observability is disabled), for live exposition endpoints.
func (e *Engine) Observers() []*obs.Observer {
	out := make([]*obs.Observer, len(e.observers))
	copy(out, e.observers)
	return out
}
