package obs

import (
	"sort"
	"sync"
)

// DefaultTraceCapacity is the event ring-buffer size when Options
// leaves TraceCapacity zero.
const DefaultTraceCapacity = 4096

// Kind names a decision-event class. The catalog below covers every
// management decision the simulator takes autonomously — the events an
// operator of the real system would want on a timeline next to the
// metrics.
type Kind string

// The decision-event catalog.
const (
	// KindGCStart / KindGCEnd bracket one background garbage
	// collection (Block is the victim; N is the invalid-page count at
	// start, the relocated-page count at end; Dur the background time).
	KindGCStart Kind = "gc_start"
	KindGCEnd   Kind = "gc_end"
	// KindWearRotate is a section 3.6 wear-levelling migration: the
	// newest block's content moved into worn Block (From names the
	// source block; N pages moved).
	KindWearRotate Kind = "wear_rotate"
	// KindECCBump is a staged ECC strength increase on Block
	// (From/To are strengths; N the observed bit errors).
	KindECCBump Kind = "ecc_bump"
	// KindDensityDown is a staged MLC→SLC density reduction on Block
	// (From/To are cell modes; N the observed bit errors).
	KindDensityDown Kind = "density_down"
	// KindPromote is a hot-page MLC→SLC promotion (section 5.2.2).
	KindPromote Kind = "promote_slc"
	// KindRetire is a permanent bad-block retirement (N valid pages
	// dropped or flushed).
	KindRetire Kind = "retire"
	// KindReadRetry is one walk of the read-retry ladder (N attempts;
	// From the page's configured strength; To "recovered" or "lost").
	KindReadRetry Kind = "read_retry"
	// KindScrubMigrate is a background-scrubber rescue of an at-risk
	// page.
	KindScrubMigrate Kind = "scrub_migrate"
	// KindRetentionScan is one predictive scrub increment run with
	// retention or read disturb enabled (N pages examined).
	KindRetentionScan Kind = "retention_scan"
	// KindRefreshRewrite is a refresh-policy rewrite of a healthy page
	// whose predicted retention+disturb errors approached capability.
	KindRefreshRewrite Kind = "refresh_rewrite"
	// KindDisturbReset marks an erase clearing Block's accumulated
	// read-disturb stress (N reads since the previous erase).
	KindDisturbReset Kind = "disturb_reset"
	// KindAdmitReject is an admission-policy veto of a read-miss fill
	// (LBA stayed out of the read region; nonzero only under
	// non-default admission).
	KindAdmitReject Kind = "admit_reject"
	// KindWriteAround is an admission-policy veto of a dirty
	// write-back: LBA went straight to the backing store instead of
	// the write region.
	KindWriteAround Kind = "write_around"
	// KindChanBusy is a host command stalled behind earlier traffic on
	// its block's channel port (Block the command's block; Dur the
	// wait). Nonzero only with a clock attached and, at the serial
	// geometry, when background work holds the device.
	KindChanBusy Kind = "chan_busy"
	// KindBankConflict is a host command whose channel was free but
	// whose bank was still serving an earlier command — typically a GC
	// erase holding the bank while the channel idles.
	KindBankConflict Kind = "bank_conflict"
	// KindWBCoalesce is a pending coalescing-write-buffer flush
	// superseded by a rewrite of the same LBA: the superseded
	// program's bank occupancy was never charged.
	KindWBCoalesce Kind = "wb_coalesce"
	// KindGCDeferred is a non-forced background collection the
	// contention-aware GC policy pushed off because the foreground
	// channel backlog was deep (Dur the deepest backlog observed;
	// Block is -1 — no victim was chosen).
	KindGCDeferred Kind = "gc_deferred"
	// KindAdmitThrottle is a hysteresis transition of the
	// scheduler-informed admission throttle (To is "on" or "off"; N
	// the write-buffer fill percentage at the flip).
	KindAdmitThrottle Kind = "admit_throttle"
	// KindScrubWindow is a scrub increment that landed deferred
	// at-risk migrations in an idle channel/bank window (N migrations
	// landed; Block is -1).
	KindScrubWindow Kind = "scrub_window"
	// KindShardMerge marks one shard's results folding into the merged
	// report (N is the shard's request count; Block is -1).
	KindShardMerge Kind = "shard_merge"
	// KindOpen reports how a cache came up: To is "fresh", "image" or
	// "cold_start" (Block is -1).
	KindOpen Kind = "open"
)

// Event is one structured decision event. T is *simulated* nanoseconds
// since the shard's epoch — never wall-clock time — which is what
// makes traces reproducible and comparable across runs and hosts.
type Event struct {
	// T is the simulated timestamp in nanoseconds.
	T int64 `json:"t"`
	// Shard is the emitting shard's index (0 for a monolithic run).
	Shard int `json:"shard"`
	// Seq is the per-shard emission sequence number; (T, Shard, Seq)
	// totally orders a merged trace.
	Seq uint64 `json:"seq"`
	// Kind classifies the decision.
	Kind Kind `json:"kind"`
	// Block is the erase block the decision concerns, -1 when the
	// event is not about one block.
	Block int `json:"block"`
	// LBA is the disk page involved, when one is.
	LBA int64 `json:"lba,omitempty"`
	// From and To describe a state transition (ECC strengths, cell
	// modes, outcome labels) in event-kind-specific terms.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// N is an event-kind-specific magnitude (pages moved, bit errors
	// observed, retry attempts).
	N int64 `json:"n,omitempty"`
	// Dur is a background duration in simulated nanoseconds, for
	// events that span time (GC).
	Dur int64 `json:"dur_ns,omitempty"`
}

// Tracer is a bounded ring buffer of decision events. Recording takes
// a mutex — decision events are orders of magnitude rarer than page
// operations — and overflow drops the oldest events, counting them.
// The ring is not allocated whole: it grows by doubling from
// traceStart events as events arrive, never past its capacity, so a
// run that records few events holds few.
type Tracer struct {
	mu sync.Mutex
	// buf holds the ring; it grows (by append, so the oldest event is
	// buf[0]) until it holds capacity events, and only then wraps.
	buf      []Event
	capacity int
	// start is the oldest event's index once the ring has wrapped.
	start   int
	seq     uint64
	dropped int64
}

// traceStart is the event count a tracer's ring first grows to.
const traceStart = 64

// NewTracer returns a tracer holding up to capacity events
// (DefaultTraceCapacity when capacity <= 0). It allocates no ring
// until the first event.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity}
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Seq = t.seq
	t.seq++
	switch n := len(t.buf); n {
	case t.capacity:
		t.buf[t.start] = e
		t.start = (t.start + 1) % n
		t.dropped++
		return
	case cap(t.buf):
		grown := make([]Event, n, min(max(2*n, traceStart), t.capacity))
		copy(grown, t.buf)
		t.buf = grown
	}
	t.buf = append(t.buf, e)
}

// Events returns the buffered events, oldest first. Nil-safe.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	n := copy(out, t.buf[t.start:])
	copy(out[n:], t.buf[:t.start])
	return out
}

// Dropped returns how many events overflow discarded. Nil-safe.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// MergeEvents folds per-shard event streams into one trace ordered by
// (T, Shard, Seq). The key is unique per event, so the merged order —
// like everything else in this package — depends only on what the
// shards simulated, never on how their goroutines were scheduled.
func MergeEvents(streams ...[]Event) []Event {
	var total int
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}
