// Package hier assembles the full memory hierarchy of paper Figure 2
// and drives it trace-style: a DRAM primary disk cache (PDC) in front
// of either the disk alone (the DRAM-only baseline, left side of the
// figure) or the Flash secondary disk cache plus disk (the proposed
// architecture, right side). It implements the access flows of section
// 5.1 and produces the latency, power and bandwidth numbers behind
// Figures 9 and 10.
package hier

import (
	"errors"
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/disk"
	"flashdc/internal/dram"
	"flashdc/internal/nand"
	"flashdc/internal/obs"
	"flashdc/internal/power"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// ErrFlashDead is the degraded-service condition Err reports: the
// Flash cache retired so many blocks it can no longer operate.
// Requests are still served correctly (the disk holds every page);
// callers decide whether degraded service is acceptable.
var ErrFlashDead = errors.New("hier: flash tier dead")

// Config sizes the hierarchy.
type Config struct {
	// DRAMBytes is the primary disk cache size (Table 3: 128-512MB).
	DRAMBytes int64
	// FlashBytes is the Flash secondary disk cache size; 0 builds the
	// DRAM-only baseline.
	FlashBytes int64
	// Flash tunes the Flash cache; zero value takes
	// core.DefaultConfig(FlashBytes).
	Flash core.Config
	// Disk overrides the drive model; zero value is Table 3.
	Disk disk.Config
	// ReadAhead is the number of pages prefetched into the PDC when a
	// sequential read stream is detected (the OS page-cache readahead
	// behaviour); 0 disables prefetching.
	ReadAhead int
	// FlashContention makes background Flash work (GC) delay
	// colliding foreground reads, surfacing the Figure 1(b) overhead
	// in request latency instead of only in power/time accounting.
	FlashContention bool
	// PDCPolicy is the primary disk cache replacement policy; strict
	// LRU (the zero value) is the only one. The field remains only
	// because the benchmark module's ledger (bench/ledger.go) reads it.
	PDCPolicy dram.Policy
	// Seed drives the Flash wear sampling.
	Seed uint64
	// Observer, when enabled, receives the hierarchy's metrics and
	// decision events (see internal/obs), clocked by this system's
	// simulated clock; engine.New gives each shard its own from
	// engine.Config.Obs. Nil (or a disabled observer) keeps every hot
	// path on the nil-check fast path.
	Observer *obs.Observer
}

// Stats aggregates hierarchy-level behaviour.
type Stats struct {
	Requests   int64
	ReadPages  int64
	WritePages int64
	PDCHits    int64
	FlashHits  int64
	DiskReads  int64
	// Prefetched counts pages pulled into the PDC by readahead.
	Prefetched   int64
	TotalLatency sim.Duration
}

// AvgLatency returns mean foreground latency per page access.
func (s Stats) AvgLatency() sim.Duration {
	n := s.ReadPages + s.WritePages
	if n == 0 {
		return 0
	}
	return sim.Duration(int64(s.TotalLatency) / n)
}

// Merge adds other's counters into s, combining the activity of
// independent shards into one hierarchy-level total.
func (s *Stats) Merge(other Stats) {
	s.Requests += other.Requests
	s.ReadPages += other.ReadPages
	s.WritePages += other.WritePages
	s.PDCHits += other.PDCHits
	s.FlashHits += other.FlashHits
	s.DiskReads += other.DiskReads
	s.Prefetched += other.Prefetched
	s.TotalLatency += other.TotalLatency
}

// System is an assembled hierarchy. Not safe for concurrent use.
type System struct {
	cfg   Config
	clock sim.Clock
	pdc   *dram.Cache
	flash *core.Cache // nil in the DRAM-only baseline
	disk  *disk.Disk
	stats Stats
	// latencies records per-page foreground latency for percentile
	// reporting.
	latencies sim.Histogram
	// obs is the attached observability sink (nil when disabled). All
	// hierarchy metrics are sampled at snapshot time by collect, so
	// the per-request cost of an enabled observer is one interval
	// check in handle.
	obs *obs.Observer
	// latProfile is the reusable latency-rebucketing scratch, so
	// collect builds no bucket slices per snapshot (Sample copies what
	// it keeps); latSlots[i] is the latProfile bucket that latencies'
	// bucket i falls in.
	latProfile obs.HistogramSnapshot
	latSlots   []uint8
	// lastRead and streak detect sequential read runs for readahead.
	lastRead int64
	streak   int
}

// diskBacking adapts the drive to the Flash cache's Backing interface.
type diskBacking struct{ d *disk.Disk }

func (b diskBacking) WritePage(int64) sim.Duration { return b.d.Write() }

// New assembles a hierarchy.
func New(cfg Config) *System {
	if cfg.DRAMBytes < dram.PageSize {
		panic(fmt.Sprintf("hier: DRAM %d bytes too small", cfg.DRAMBytes))
	}
	drive, err := disk.New(cfg.Disk)
	if err != nil {
		// Sizing the drive is a design-time decision in every caller,
		// like the DRAM floor above.
		panic("hier: " + err.Error())
	}
	s := &System{
		cfg:  cfg,
		pdc:  dram.NewCacheWithPolicy(cfg.DRAMBytes, cfg.PDCPolicy),
		disk: drive,
	}
	if cfg.Observer.Enabled() {
		s.obs = cfg.Observer
		s.obs.SetClock(&s.clock)
		s.obs.RegisterCollector(s.collect)
	}
	if cfg.FlashBytes > 0 {
		fc := FlashConfig(cfg)
		fc.Seed = cfg.Seed
		fc.Backing = diskBacking{s.disk}
		fc.MissPenalty = s.disk.Config().ReadLatency
		// Open without an image cannot fail; it builds the cache and
		// records the "open" event.
		s.flash, _, _ = core.Open(fc, nil, core.WithObserver(s.obs))
		if cfg.FlashContention || fc.Sched.Active() {
			// A non-default scheduler geometry (channels, banks, write
			// buffer) implies contention modelling: channel/bank
			// parallelism is meaningless without a device timeline.
			s.flash.AttachClock(&s.clock)
		} else {
			// The device always observes the simulated clock so
			// retention dwell is stamped in simulated time; full
			// contention modelling stays opt-in.
			s.flash.AttachTimeBase(&s.clock)
		}
	}
	return s
}

// FlashConfig is the Flash cache configuration New builds for cfg,
// before the seed and disk: cfg.Flash, or core.DefaultConfig when that
// is zero, sized to cfg.FlashBytes.
func FlashConfig(cfg Config) core.Config {
	fc := cfg.Flash
	if fc == (core.Config{}) {
		fc = core.DefaultConfig(cfg.FlashBytes)
	}
	fc.FlashBytes = cfg.FlashBytes
	return fc
}

// collect folds the hierarchy counters into an observability sample
// at snapshot time. The tier_<level>_{reads,hits,misses,writes}_total
// series are read from each level's own counters; no hot path keeps a
// second copy. That rests on two call-order invariants of this file:
//
//   - A PDC fill follows every PDC miss (readPage and prefetch), and
//     the DRAM cache counts each fill as a write, so the DRAM level's
//     lookups are Hits+Misses and its stores from above are
//     Writes-Misses.
//   - hier is the only caller of the Flash cache's Read and Write and
//     of the drive's Read, so their counters are those levels' reads
//     and writes. With a Flash level, the drive's writes are Flash's
//     own write-backs, not stores from above, and count as 0.
func (s *System) collect(smp *obs.Sample) {
	st := s.stats
	smp.Counter("hier_requests_total", st.Requests)
	smp.Counter("hier_read_pages_total", st.ReadPages)
	smp.Counter("hier_write_pages_total", st.WritePages)
	smp.Counter("hier_pdc_hits_total", st.PDCHits)
	smp.Counter("hier_flash_hits_total", st.FlashHits)
	smp.Counter("hier_disk_reads_total", st.DiskReads)
	smp.Counter("hier_prefetched_total", st.Prefetched)
	smp.Counter("hier_latency_ns_total", int64(st.TotalLatency))
	ds := s.disk.Stats()
	smp.Counter("disk_busy_ns_total", int64(ds.BusyTime))
	ps := s.pdc.Stats()
	smp.Counter("tier_dram_reads_total", ps.Hits+ps.Misses)
	smp.Counter("tier_dram_hits_total", ps.Hits)
	smp.Counter("tier_dram_misses_total", ps.Misses)
	smp.Counter("tier_dram_writes_total", ps.Writes-ps.Misses)
	diskWrites := ds.Writes
	if s.flash != nil {
		fs := s.flash.Stats()
		smp.Counter("tier_flash_reads_total", fs.Reads)
		smp.Counter("tier_flash_hits_total", fs.Hits)
		smp.Counter("tier_flash_misses_total", fs.Misses)
		smp.Counter("tier_flash_writes_total", fs.Writes)
		diskWrites = 0
	}
	smp.Counter("tier_disk_reads_total", ds.Reads)
	smp.Counter("tier_disk_hits_total", ds.Reads)
	smp.Counter("tier_disk_misses_total", 0)
	smp.Counter("tier_disk_writes_total", diskWrites)
	smp.Histogram("hier_page_latency_ns", s.latencyProfile())
}

// latencyProfile re-buckets the per-page latency histogram the system
// already maintains into the fixed observability bounds. Publishing at
// snapshot time keeps the handle hot path free of any per-page
// recording cost; each log-scale source bucket lands in the
// observability bucket its floor falls in (bound resolution is far
// coarser than the ~9% source buckets, so the skew is negligible).
// latSlots grows with the source histogram, so each source bucket's
// slot is found once.
func (s *System) latencyProfile() obs.HistogramSnapshot {
	hs := &s.latProfile
	if hs.Bounds == nil {
		hs.Bounds = obs.LatencyBounds()
		hs.Buckets = make([]int64, len(hs.Bounds)+1)
	}
	counts := s.latencies.Counts()
	for i := len(s.latSlots); i < len(counts); i++ {
		floor, j := int64(sim.BucketFloor(i)), 0
		for j < len(hs.Bounds) && floor > hs.Bounds[j] {
			j++
		}
		s.latSlots = append(s.latSlots, uint8(j))
	}
	clear(hs.Buckets)
	for i, c := range counts {
		hs.Buckets[s.latSlots[i]] += int64(c)
	}
	hs.Count = int64(s.latencies.Count())
	hs.Sum = int64(s.latencies.Sum())
	return *hs
}

// CheckIntegrity audits the Flash cache's mapping tables against the
// device contents (see core.Cache.CheckIntegrity). It returns nil in
// the DRAM-only baseline.
func (s *System) CheckIntegrity() error {
	if s.flash == nil {
		return nil
	}
	return s.flash.CheckIntegrity()
}

// Err reports ErrFlashDead once the Flash cache has died, and nil
// before that or without a Flash tier. The condition is sticky; the
// System counterpart of engine.Engine.Err.
func (s *System) Err() error {
	if s.flash != nil && s.flash.Dead() {
		return ErrFlashDead
	}
	return nil
}

// SchedStats returns the NAND command scheduler's counters (zero
// without a Flash tier).
func (s *System) SchedStats() sched.Stats {
	if s.flash == nil {
		return sched.Stats{}
	}
	return s.flash.SchedStats()
}

// Flash exposes the Flash cache, or nil for the DRAM-only baseline.
func (s *System) Flash() *core.Cache { return s.flash }

// PDC exposes the DRAM primary disk cache for inspection (read-only
// uses: differential checkers enumerate its contents via Range).
func (s *System) PDC() *dram.Cache { return s.pdc }

// Stats returns a copy of the hierarchy counters.
func (s *System) Stats() Stats { return s.stats }

// Now returns accumulated foreground service time.
func (s *System) Now() sim.Time { return s.clock.Now() }

// RunBatch services every request of batch in order and returns
// len(batch). A dead Flash tier still serves every request correctly
// from DRAM and disk; Err reports it.
func (s *System) RunBatch(batch []trace.Request) int {
	for _, r := range batch {
		s.handle(r)
	}
	return len(batch)
}

// handle services one request, returning its foreground latency and
// advancing the internal clock by it.
func (s *System) handle(req trace.Request) sim.Duration {
	s.stats.Requests++
	// The page walk is inlined (rather than routed through
	// trace.Request.Expand's callback) to keep the per-request path
	// closure-free: handle runs once per simulated request, and an
	// escaping closure here was a measurable share of the replay
	// engine's steady-state allocations.
	n := req.Pages
	if n < 1 {
		n = 1
	}
	isRead := req.Op == trace.OpRead
	var total sim.Duration
	for i := 0; i < n; i++ {
		lba := req.LBA + int64(i)
		var lat sim.Duration
		if isRead {
			s.stats.ReadPages++
			lat = s.readPage(lba)
		} else {
			s.stats.WritePages++
			lat = s.writePage(lba)
		}
		s.latencies.Observe(lat)
		total += lat
	}
	s.clock.Advance(total)
	s.stats.TotalLatency += total
	s.obs.MaybeSnapshot(s.clock.Now())
	return total
}

// readPage follows section 5.1: PDC, then FCHT/Flash, then disk, with
// fills on the way back up. Sequential streams trigger readahead.
func (s *System) readPage(lba int64) sim.Duration {
	s.noteRead(lba)
	if hit, lat := s.pdc.Read(lba); hit {
		s.stats.PDCHits++
		return lat
	}
	lat, flashHit := s.readBelow(lba)
	if flashHit {
		s.stats.FlashHits++
	} else {
		s.stats.DiskReads++
	}
	return lat + s.fillPDC(lba)
}

// noteRead advances the sequential-readahead detector and triggers the
// prefetcher on an established streak.
func (s *System) noteRead(lba int64) {
	if lba == s.lastRead+1 {
		s.streak++
	} else {
		s.streak = 0
	}
	s.lastRead = lba
	if s.cfg.ReadAhead > 0 && s.streak >= 2 {
		s.prefetch(lba+1, s.cfg.ReadAhead)
	}
}

// readBelow serves a PDC miss from Flash or, failing that, the disk,
// inserting a disk-served page into Flash on the way back up (the Flash
// fill precedes the PDC fill, as in section 5.1).
func (s *System) readBelow(lba int64) (lat sim.Duration, flashHit bool) {
	if s.flash != nil {
		if out := s.flash.Read(lba); out.Hit {
			return out.Latency, true
		}
	}
	lat = s.disk.Read()
	if s.flash != nil {
		s.flash.Insert(lba)
	}
	return lat, false
}

// fillPDC installs a page fetched from below into the PDC, returning
// the foreground cost of the fill.
func (s *System) fillPDC(lba int64) sim.Duration {
	lat, ev, evicted := s.pdc.Fill(lba)
	if evicted && ev.Dirty {
		s.writeBelow(ev.LBA)
	}
	return lat
}

// writeBelow writes a dirty PDC page back to Flash, or to the disk when
// there is no Flash (background; not foreground latency). Flash absorbs
// the write and flushes its own dirty evictions to the disk.
func (s *System) writeBelow(lba int64) {
	if s.flash != nil {
		s.flash.Write(lba)
		return
	}
	s.disk.Write()
}

// prefetch pulls up to n consecutive pages into the PDC from the
// lower levels, off the critical path (background time only; lower-
// level hits are not counted as foreground hits).
func (s *System) prefetch(start int64, n int) {
	for lba := start; lba < start+int64(n); lba++ {
		if hit, _ := s.pdc.Read(lba); hit {
			continue
		}
		if _, flashHit := s.readBelow(lba); !flashHit {
			s.stats.DiskReads++
		}
		s.fillPDC(lba)
		s.stats.Prefetched++
	}
}

// writePage dirties the page in the PDC; write-back to the levels
// below happens on eviction (the paper's periodic flush behaviour).
func (s *System) writePage(lba int64) sim.Duration {
	lat, ev, evicted := s.pdc.Write(lba)
	if evicted && ev.Dirty {
		s.writeBelow(ev.LBA)
	}
	return lat
}

// Drain flushes all dirty state down the hierarchy (end of run).
func (s *System) Drain() {
	for _, lba := range s.pdc.DirtyPages() {
		s.writeBelow(lba)
		s.pdc.Clean(lba)
	}
	if s.flash != nil {
		s.flash.Flush()
	}
}

// PowerWithAppTraffic returns the average power breakdown over the
// given wall-clock interval (typically the closed-loop elapsed time
// from the server model, which exceeds pure service time), with
// appAccesses application-side DRAM accesses folded in (split 3:1
// read:write): the CPU memory traffic a full-system simulation would
// add on top of the disk-cache traffic.
func (s *System) PowerWithAppTraffic(elapsed sim.Duration, appAccesses int64) power.Breakdown {
	dst := s.pdc.Stats()
	dst.Reads += appAccesses * 3 / 4
	dst.Writes += appAccesses / 4
	var fst nand.Stats
	if s.flash != nil {
		fst = s.flash.DeviceStats()
	}
	return power.Account(elapsed, s.cfg.DRAMBytes, dst, s.cfg.FlashBytes, fst, s.disk.Stats(), s.disk.Config())
}

// DiskBusy returns the drive's accumulated busy time.
func (s *System) DiskBusy() sim.Duration { return s.disk.Stats().BusyTime }

// Latencies exposes the per-page latency distribution (percentiles).
func (s *System) Latencies() *sim.Histogram { return &s.latencies }

// ResetStats zeroes all activity counters after a warmup phase so
// steady-state power and latency can be measured; cache contents and
// Flash wear are untouched.
func (s *System) ResetStats() {
	s.stats = Stats{}
	s.latencies = sim.Histogram{}
	s.pdc.ResetStats()
	s.disk.ResetStats()
	// Rewind the clock before the Flash reset, which re-anchors the
	// device timeline to the epoch.
	s.clock = sim.Clock{}
	if s.flash != nil {
		s.flash.ResetDeviceStats()
	}
}
