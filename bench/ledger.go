package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"flashdc/internal/core"
	"flashdc/internal/disk"
	"flashdc/internal/dram"
	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// The isolation ledger replays a workload's trace once more, through
// each layer's public functions on their own, and times every layer
// per batch:
//
//	trace  MapSource.Next over the whole trace
//	hier   a standalone hier.System per shard, built like the engine's
//	dram   a standalone dram.Cache per shard fed the shard's pages
//	core   a standalone core.Cache per shard fed the flash operations
//	       the dram replay produced, over the ledger's own disk.Disk
//
// An isolated layer is only worth timing if it does the work it does
// inside the engine, so every replay is checked against the engine
// that served the same trace: the dram replay's Stats, the core
// replay's Stats, scheduler Stats, device Stats and clock, and the
// hierarchy counters and latency histogram rebuilt from both replays
// must equal the engine shard's exactly. Any difference fails the run
// and names the layer.

// ledgerChunk is how many batches each layer replays before the next
// layer takes over.
const ledgerChunk = 64

// opKind classifies one entry of the PDC outcome stream.
type opKind uint8

const (
	opReadHit   opKind = iota // a read the PDC served
	opWrite                   // a write the PDC absorbed
	opReadMiss                // a read the PDC missed and then filled
	opWriteback               // a dirty page the PDC evicted
	opEnd                     // the end of a request
)

// pageOp is one entry of the stream the dram replay hands the core
// replay. lat is the page's foreground latency: the PDC's share, to
// which the core replay adds the flash or disk read of a miss.
type pageOp struct {
	lba      int64
	lat      sim.Duration
	kind     opKind
	flashHit bool
}

// diskBacking adapts the ledger's drive to core.Backing, as the
// hierarchy adapts its own.
type diskBacking struct{ d *disk.Disk }

func (b diskBacking) WritePage(int64) sim.Duration { return b.d.Write() }

// ledgerShard is one shard's isolated replays and their results.
type ledgerShard struct {
	sys   *hier.System
	pdc   *dram.Cache
	flash *core.Cache
	disk  *disk.Disk
	clock sim.Clock

	// reqs is the shard's share of the current chunk and ops the PDC
	// outcome stream the dram replay makes of it; reqEnds and opEnds
	// mark where each batch of the chunk ends in them.
	reqs            []trace.Request
	ops             []pageOp
	reqEnds, opEnds []int

	// st and lat are the hierarchy results rebuilt from the dram and
	// core replays; flashOps counts the core calls they made.
	st       hier.Stats
	lat      sim.Histogram
	flashOps int64

	hierT, dramT, coreT time.Duration
}

func newLedgerShard(h hier.Config) (*ledgerShard, error) {
	d, err := disk.New(h.Disk)
	if err != nil {
		return nil, err
	}
	fc := h.Flash
	fc.FlashBytes = h.FlashBytes
	fc.Seed = h.Seed
	fc.Backing = diskBacking{d}
	fc.MissPenalty = d.Config().ReadLatency
	flash, _, err := core.Open(fc, nil)
	if err != nil {
		return nil, err
	}
	l := &ledgerShard{
		sys:   hier.New(h),
		pdc:   dram.NewCacheWithPolicy(h.DRAMBytes, h.PDCPolicy),
		flash: flash,
		disk:  d,
	}
	if h.FlashContention || fc.Sched.Active() {
		flash.AttachClock(&l.clock)
	} else {
		flash.AttachTimeBase(&l.clock)
	}
	return l, nil
}

// replayChunk runs the routed chunk through each layer in turn,
// timing every batch of it; mark records the spans, j indexing the
// batch within the chunk.
func (l *ledgerShard) replayChunk(mark func(layer, parent string, j int, t0, t1 time.Time)) {
	lo := 0
	for j, hi := range l.reqEnds {
		t0 := time.Now()
		l.sys.RunBatch(l.reqs[lo:hi])
		t1 := time.Now()
		l.hierT += t1.Sub(t0)
		mark("hier", "engine", j, t0, t1)
		lo = hi
	}
	l.ops, l.opEnds = l.ops[:0], l.opEnds[:0]
	lo = 0
	for j, hi := range l.reqEnds {
		t0 := time.Now()
		l.replayDRAM(l.reqs[lo:hi])
		t1 := time.Now()
		l.dramT += t1.Sub(t0)
		mark("dram", "hier", j, t0, t1)
		l.opEnds = append(l.opEnds, len(l.ops))
		lo = hi
	}
	lo = 0
	for j, hi := range l.opEnds {
		t0 := time.Now()
		l.replayCore(l.ops[lo:hi])
		t1 := time.Now()
		l.coreT += t1.Sub(t0)
		mark("core", "hier", j, t0, t1)
		lo = hi
	}
	l.account(l.ops)
}

// replayDRAM runs requests through the standalone PDC the way the
// hierarchy does — Read, then Fill on a miss; Write — and appends
// every page's outcome and every dirty eviction to l.ops.
func (l *ledgerShard) replayDRAM(reqs []trace.Request) {
	ops := l.ops
	for _, r := range reqs {
		n := max(r.Pages, 1)
		for i := 0; i < n; i++ {
			lba := r.LBA + int64(i)
			var (
				lat     sim.Duration
				ev      dram.Evicted
				evicted bool
				kind    = opWrite
			)
			if r.Op == trace.OpRead {
				hit, hl := l.pdc.Read(lba)
				if hit {
					ops = append(ops, pageOp{lba: lba, lat: hl, kind: opReadHit})
					continue
				}
				lat, ev, evicted = l.pdc.Fill(lba)
				kind = opReadMiss
			} else {
				lat, ev, evicted = l.pdc.Write(lba)
			}
			ops = append(ops, pageOp{lba: lba, lat: lat, kind: kind})
			if evicted && ev.Dirty {
				ops = append(ops, pageOp{lba: ev.LBA, kind: opWriteback})
			}
		}
		ops = append(ops, pageOp{kind: opEnd})
	}
	l.ops = ops
}

// replayCore runs the flash operations of ops through the standalone
// cache in hierarchy order — Read, then disk read and Insert on a
// miss; Write for a write-back — and advances the clock by each
// request's latency when the request ends, as the hierarchy does.
func (l *ledgerShard) replayCore(ops []pageOp) {
	var total sim.Duration
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opReadMiss:
			if out := l.flash.Read(op.lba); out.Hit {
				op.lat += out.Latency
				op.flashHit = true
			} else {
				op.lat += l.disk.Read()
				l.flash.Insert(op.lba)
			}
		case opWriteback:
			l.flash.Write(op.lba)
			continue
		case opEnd:
			l.clock.Advance(total)
			total = 0
			continue
		}
		total += op.lat
	}
}

// account folds a replayed batch into the rebuilt hierarchy results.
func (l *ledgerShard) account(ops []pageOp) {
	for _, op := range ops {
		switch op.kind {
		case opReadHit:
			l.st.ReadPages++
			l.st.PDCHits++
		case opWrite:
			l.st.WritePages++
		case opReadMiss:
			l.st.ReadPages++
			l.flashOps++
			if op.flashHit {
				l.st.FlashHits++
			} else {
				l.st.DiskReads++
				l.flashOps++
			}
		case opWriteback:
			l.flashOps++
			continue
		case opEnd:
			l.st.Requests++
			continue
		}
		l.lat.Observe(op.lat)
		l.st.TotalLatency += op.lat
	}
}

// verify compares the shard's isolated replays with the engine's
// shard that served the same stream, lowest layer first so that a
// difference is reported at the layer it starts in.
func (l *ledgerShard) verify(i int, ref *hier.System) error {
	rl := ref.Latencies().State()
	checks := []error{
		equal("dram", i, "Stats", l.pdc.Stats(), ref.PDC().Stats()),
		equal("core", i, "Stats", l.flash.Stats(), ref.Flash().Stats()),
		equal("core", i, "Global", l.flash.Global(), ref.Flash().Global()),
		equal("nand", i, "DeviceStats", l.flash.DeviceStats(), ref.Flash().DeviceStats()),
		equal("sched", i, "SchedStats", l.flash.SchedStats(), ref.SchedStats()),
		equal("core", i, "clock", l.clock.Now(), ref.Now()),
		equal("disk", i, "busy time", l.disk.Stats().BusyTime, ref.DiskBusy()),
		equal("dram+core", i, "rebuilt hierarchy Stats", l.st, ref.Stats()),
		equal("dram+core", i, "rebuilt latency histogram", l.lat.State(), rl),
		equal("hier", i, "Stats", l.sys.Stats(), ref.Stats()),
		equal("hier", i, "latency histogram", l.sys.Latencies().State(), rl),
		equal("hier", i, "clock", l.sys.Now(), ref.Now()),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// span is one timed (layer, shard, batch) interval of the traced run.
// Batch is the id the spans of one batch share: the engine span (from
// the reference replay) is the root, the trace and hier spans its
// children, and hier the parent of dram and core. StartNS and EndNS
// count from the start of the pass that recorded the span.
type span struct {
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	Shard   int    `json:"shard"`
	Batch   int    `json:"batch"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// ledger is the result of one traced run.
type ledger struct {
	requests int
	decode   time.Duration
	shards   []*ledgerShard
	spans    []span
}

// runLedger replays tf through each layer in isolation and verifies
// every layer against ref, the engine that replayed tf for s.
func runLedger(s spec, tf traceFile, ref *engine.Engine) (*ledger, error) {
	if ref.Shards() != s.Shards {
		return nil, fmt.Errorf("ledger: engine has %d shards, workload %d", ref.Shards(), s.Shards)
	}
	src, err := trace.MapFile(tf.path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	lg := &ledger{}
	origin := time.Now()
	mark := func(layer, parent string, shard, batch int, t0, t1 time.Time) {
		lg.spans = append(lg.spans, span{Layer: layer, Parent: parent, Shard: shard, Batch: batch,
			StartNS: t0.Sub(origin).Nanoseconds(), EndNS: t1.Sub(origin).Nanoseconds()})
	}

	// Decode alone.
	buf := make([]trace.Request, trace.DefaultBatch)
	for batch := 0; ; batch++ {
		t0 := time.Now()
		k := src.Next(buf)
		t1 := time.Now()
		if k == 0 {
			break
		}
		lg.decode += t1.Sub(t0)
		lg.requests += k
		mark("trace", "engine", 0, batch, t0, t1)
	}
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("trace decode: %w", err)
	}

	for i := 0; i < s.Shards; i++ {
		sh, err := newLedgerShard(s.shardConfig(i))
		if err != nil {
			return nil, err
		}
		lg.shards = append(lg.shards, sh)
	}
	route := func(s int, run trace.Request) {
		lg.shards[s].reqs = append(lg.shards[s].reqs, run)
	}

	// Batches are routed (untimed) as the engine routes them, a chunk
	// at a time; then each shard runs the chunk through hier, dram and
	// core, one layer after another. Interleaving the layers per batch
	// would let each evict the others' state from the CPU caches and
	// charge them for it; a chunk is long enough to make that
	// negligible and short enough to keep the buffers small.
	src.Reset()
	for batch, done := 0, false; !done; {
		first := batch
		for _, sh := range lg.shards {
			sh.reqs, sh.reqEnds = sh.reqs[:0], sh.reqEnds[:0]
		}
		for ; batch-first < ledgerChunk; batch++ {
			k := src.Next(buf)
			if k == 0 {
				done = true
				break
			}
			for _, r := range buf[:k] {
				trace.SplitRuns(r, s.Shards, route)
			}
			for _, sh := range lg.shards {
				sh.reqEnds = append(sh.reqEnds, len(sh.reqs))
			}
		}
		for i, sh := range lg.shards {
			sh.replayChunk(func(layer, parent string, j int, t0, t1 time.Time) {
				mark(layer, parent, i, first+j, t0, t1)
			})
		}
	}

	for i, sh := range lg.shards {
		if err := sh.verify(i, ref.Shard(i)); err != nil {
			return nil, err
		}
	}
	var merged hier.Stats
	for _, sh := range lg.shards {
		merged.Merge(sh.sys.Stats())
	}
	if err := equal("engine", -1, "merged hier Stats", merged, ref.Stats()); err != nil {
		return nil, err
	}
	return lg, nil
}

// layerMetrics derives the per-layer metrics from the untraced
// repeats' median wall time and batch times, the traced reference
// replay, its ledger and, for an observed workload, a replay with
// observation off. Host times are multiplied by scale, the run's
// host-speed factor.
func layerMetrics(scale, e2eWall float64, batchMS []float64, ref *replay, lg *ledger, off *replay) map[string]float64 {
	eng := ref.eng
	n := float64(lg.requests)
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) * scale / n }
	perK := func(c int64) float64 { return float64(c) / n * 1e3 }

	var hierMax, hierSum, dramSum, coreSum time.Duration
	var flashOps int64
	var disks struct{ reads, writes int64 }
	var pdc dram.Stats
	var simTime sim.Duration
	var maxReqs int64
	for i, sh := range lg.shards {
		hierMax = max(hierMax, sh.hierT)
		hierSum += sh.hierT
		dramSum += sh.dramT
		coreSum += sh.coreT
		flashOps += sh.flashOps
		ds := sh.disk.Stats()
		disks.reads += ds.Reads
		disks.writes += ds.Writes
		ref := eng.Shard(i)
		pdc.Merge(ref.PDC().Stats())
		simTime += sim.Duration(ref.Now())
		maxReqs = max(maxReqs, ref.Stats().Requests)
	}
	e2e := time.Duration(e2eWall * float64(time.Second))
	engineT := e2e - lg.decode
	fs, gl, ds, ss := eng.FlashStats(), eng.Global(), eng.DeviceStats(), eng.SchedStats()
	var snaps, events, dropped int
	for _, o := range eng.Observers() {
		snaps += len(o.Snapshots())
		if o.Trace != nil {
			events += len(o.Trace.Events())
			dropped += int(o.Trace.Dropped())
		}
	}
	obsOverhead := 0.0
	if off != nil {
		obsOverhead = e2eWall/off.wall.Seconds() - 1
	}
	p50, p99 := percentile(batchMS, 0.50)*scale, percentile(batchMS, 0.99)*scale
	return map[string]float64{
		"trace.decode_ns_per_req":     perReq(lg.decode),
		"engine.self_ns_per_req":      perReq(engineT - hierMax),
		"engine.parallel_efficiency":  hierSum.Seconds() / (float64(eng.Workers()) * engineT.Seconds()),
		"engine.batch_p50_ms":         p50,
		"engine.batch_p99_ms":         p99,
		"engine.shard_skew":           float64(maxReqs) / (float64(eng.Stats().Requests) / float64(eng.Shards())),
		"hier.self_ns_per_req":        perReq(hierSum - dramSum - coreSum),
		"dram.ns_per_req":             perReq(dramSum),
		"dram.hit_rate":               ratio(pdc.Hits, pdc.Hits+pdc.Misses),
		"dram.writebacks_per_kreq":    perK(fs.Writes),
		"core.ns_per_req":             perReq(coreSum),
		"core.ns_per_op":              float64(coreSum.Nanoseconds()) * scale / float64(max(flashOps, 1)),
		"core.fills_per_kreq":         perK(fs.Fills),
		"core.evictions_per_kreq":     perK(fs.Evictions),
		"core.gc_runs_per_kreq":       perK(fs.GCRuns),
		"core.gc_relocations_per_run": ratio(fs.GCRelocations, fs.GCRuns),
		"core.gc_time_frac":           ratio(int64(fs.GCTime), int64(simTime)),
		"core.promotions":             float64(fs.Promotions),
		"core.wear_swaps":             float64(fs.WearSwaps),
		"core.ecc_reconfigs":          float64(gl.ECCReconfigs),
		"core.density_reconfigs":      float64(gl.DensityReconfigs),
		"core.admit_rejects":          float64(fs.AdmitRejects),
		"core.write_arounds":          float64(fs.WriteArounds),
		"core.gc_deferred":            float64(fs.GCDeferred),
		"core.throttle_flips":         float64(fs.AdmitThrottleFlips),
		"nand.reads_per_kreq":         perK(ds.Reads),
		"nand.programs_per_kreq":      perK(ds.Programs),
		"nand.busy_ms":                ds.BusyTime().Seconds() * 1e3,
		"sched.chan_waits":            float64(ss.ChanWaits),
		"sched.chan_queue":            ratio(int64(ss.ChanWaitTime), int64(simTime)),
		"sched.bank_conflicts":        float64(ss.BankConflicts),
		"sched.bank_queue":            ratio(int64(ss.BankWaitTime), int64(simTime)),
		"sched.forced_flushes":        float64(ss.ForcedFlushes),
		"sched.coalesced_frac":        ratio(ss.CoalescedWrites, ss.BufferedWrites),
		"disk.reads_per_kreq":         perK(disks.reads),
		"disk.writes_per_kreq":        perK(disks.writes),
		"obs.overhead_frac":           obsOverhead,
		"obs.snapshots":               float64(snaps),
		"obs.events":                  float64(events),
		"obs.dropped_events":          float64(dropped),
		"bench.trace_overhead_frac":   ref.wall.Seconds()/e2eWall - 1,
	}
}

// percentile returns the q-quantile of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
