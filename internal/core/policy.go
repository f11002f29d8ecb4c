package core

import (
	"fmt"
	"math"

	"flashdc/internal/policy"
	"flashdc/internal/sim"
)

// The three policy decision points of the cache, behind small
// interfaces so competitors from the related work can race the paper's
// behaviour without touching the mechanism code (reclaim, allocation,
// write-back plumbing). The implementations live here because victim
// selection needs the cache's region LRU lists and per-block metadata;
// the name registry and the shared admission filter live in
// internal/policy so configuration surfaces and the reference model
// can use them without importing core.
//
// Hot-path contract: every implementation is allocation-free. The
// default implementations reproduce the pre-framework behaviour
// exactly — with a default policy.Set, simulation output is
// bit-identical to the welded-in code they were extracted from.

// evictPolicy picks the block a full region evicts.
type evictPolicy interface {
	// victim returns the block to evict, or none when the region has
	// no active blocks.
	victim(c *Cache, r *region) int
	// rotate reports whether the section 3.6 wear-rotation migration
	// runs after erases (the wear-lru policy's second half).
	rotate() bool
}

// admitPolicy decides what enters the Flash cache and when dirty data
// writes back through it.
type admitPolicy interface {
	// noteRead observes one flash-tier read lookup. Called on every
	// Read, hit or miss, dead or alive — the reference model replays
	// the identical sequence against its own filter.
	noteRead(lba int64)
	// admitFill gates a read-miss fill into the read region.
	admitFill(lba int64) bool
	// admitWriteback gates a dirty write-back into the write region;
	// a false verdict sends the page straight to the backing store.
	admitWriteback(lba int64) bool
	// checkpoint / restore round-trip the policy's state through the
	// campaign checkpoint (canonical, map-free form).
	checkpoint() []policy.AdmitEntry
	restore(entries []policy.AdmitEntry) error
}

// gcPolicy picks the background-collection victim.
type gcPolicy interface {
	// victim returns the block to collect and its invalid-page count,
	// or none when no block is worth collecting. force marks the
	// watermark trigger, which collects even low-payoff blocks.
	victim(c *Cache, r *region, force bool) (b, invalid int)
}

// Scheduler-feedback thresholds (DESIGN.md section 14). Every
// comparison is against deterministic scheduler state in simulated
// time, so feedback decisions replay byte-identically at any worker
// count.
const (
	// throttleHigh / throttleLow bound the admission throttle's
	// hysteresis band over the write-buffer fill fraction: throttling
	// engages at the high-water mark and releases only once the
	// buffer has drained to the low-water mark, so the policy cannot
	// flap on every flush.
	throttleHigh = 0.75
	throttleLow  = 0.375
	// gcDeferBacklog is the foreground channel backlog above which
	// non-forced background collection stands down: an erase issued
	// now would queue its bank behind committed host work.
	gcDeferBacklog = 2 * sim.Millisecond
	// gcDeferMax caps consecutive deferrals: a persistently deep
	// backlog must not starve reclamation — free space would run dry
	// and force evictions of valid pages, a hit-rate cost no latency
	// win repays — so after gcDeferMax stand-downs in a row the next
	// collection opportunity proceeds regardless of backlog.
	gcDeferMax = 8
	// gcSteerSlackNum/Den bound how much reclaim benefit idle-bank
	// steering may surrender: a candidate is a near-tie — eligible to
	// displace greedy's most-invalid victim — only if its invalid count
	// is at least Num/Den of greedy's. Kept tight because every invalid
	// page surrendered is extra relocations and an earlier next
	// collection.
	gcSteerSlackNum = 7
	gcSteerSlackDen = 8
	// scrubDeferWait is the bank wait above which a scrub/refresh
	// migration is deferred to a later idle window (scrub.go).
	scrubDeferWait = 100 * sim.Microsecond
)

// newPolicies instantiates the configured implementations. The set
// must already be normalized and validated (New does both). The cache
// receiver exists for the scheduler-feedback policies, which consult
// c.sched's occupancy surface at decision time.
func newPolicies(c *Cache, s policy.Set) (evictPolicy, admitPolicy, gcPolicy) {
	var ev evictPolicy
	switch s.Evict {
	case policy.EvictWearLRU:
		ev = wearLRUEvict{}
	case policy.EvictCMWear:
		ev = cmWearEvict{}
	default:
		panic(fmt.Sprintf("core: unregistered evict policy %q", s.Evict))
	}
	var ad admitPolicy
	switch s.Admit {
	case policy.AdmitPaper:
		ad = paperAdmit{}
	case policy.AdmitWLFC:
		ad = &wlfcAdmit{filter: policy.NewAdmitFilter()}
	case policy.AdmitThrottle:
		ad = &throttleAdmit{c: c, filter: policy.NewAdmitFilter()}
	default:
		panic(fmt.Sprintf("core: unregistered admit policy %q", s.Admit))
	}
	var gc gcPolicy
	switch s.GC {
	case policy.GCGreedy:
		gc = greedyGC{}
	case policy.GCCostBenefit:
		gc = costBenefitGC{}
	case policy.GCContentionAware:
		gc = &contentionGC{}
	default:
		panic(fmt.Sprintf("core: unregistered gc policy %q", s.GC))
	}
	return ev, ad, gc
}

// ---- Eviction ----

// wearLRUEvict is the paper's section 3.6 replacement policy: evict
// the least recently used block, then let the wear-rotation migration
// swap a worn victim with the globally newest block.
type wearLRUEvict struct{}

func (wearLRUEvict) victim(c *Cache, r *region) int { return int(r.tail) }
func (wearLRUEvict) rotate() bool                   { return true }

// cmWearWindow is how deep into the LRU tail the cm-wear policy looks
// for a young block. Small, so the victim stays cold (Boukhobza et
// al. keep the recency signal primary and use wear only to break near-
// ties among cold blocks).
const cmWearWindow = 4

// cmWearEvict is Boukhobza et al.'s strategy: replacement decisions
// absorb the wear-leveling job. Among the cmWearWindow least-recently-
// used blocks the one with the fewest erases is evicted — reuse of
// young blocks is preferred — and the explicit wear-rotation
// migrations are disabled, saving their relocation writes.
type cmWearEvict struct{}

func (cmWearEvict) victim(c *Cache, r *region) int {
	best, bestErases, n := none, 0, 0
	for b := int(r.tail); b != none && n < cmWearWindow; b = int(c.meta[b].prev) {
		if er := c.dev.EraseCount(b); best == none || er < bestErases {
			best, bestErases = b, er
		}
		n++
	}
	return best
}
func (cmWearEvict) rotate() bool { return false }

// ---- Admission ----

// paperAdmit is the paper's behaviour: everything is admitted.
type paperAdmit struct{}

func (paperAdmit) noteRead(int64)            {}
func (paperAdmit) admitFill(int64) bool      { return true }
func (paperAdmit) admitWriteback(int64) bool { return true }

func (paperAdmit) checkpoint() []policy.AdmitEntry { return nil }
func (paperAdmit) restore(entries []policy.AdmitEntry) error {
	if len(entries) != 0 {
		return fmt.Errorf("core: checkpoint carries admission-filter state but the admit policy is %q", policy.AdmitPaper)
	}
	return nil
}

// wlfcAdmit is WLFC-style write-less admission: a read-miss fill is
// admitted only once the page has been looked up twice (the filter's
// second touch proves reuse), and dirty write-backs bypass Flash
// entirely — the disk absorbs them directly, saving the program and
// its downstream GC/erase traffic.
type wlfcAdmit struct{ filter *policy.AdmitFilter }

func (a *wlfcAdmit) noteRead(lba int64)              { a.filter.Touch(lba) }
func (a *wlfcAdmit) admitFill(lba int64) bool        { return a.filter.Hot(lba) }
func (a *wlfcAdmit) admitWriteback(int64) bool       { return false }
func (a *wlfcAdmit) checkpoint() []policy.AdmitEntry { return a.filter.Checkpoint() }
func (a *wlfcAdmit) restore(entries []policy.AdmitEntry) error {
	return a.filter.Restore(entries)
}

// throttleAdmit is scheduler-informed admission throttling: admission
// degrades while the NAND write buffer is nearly full and recovers
// when it drains, with hysteresis (throttleHigh/throttleLow) so one
// flush cannot flap the verdict. While throttled, dirty write-backs
// go write-around (the disk absorbs them — exactly the traffic that
// was about to force-flush the buffer into foreground banks) and
// read-miss fills are admitted only with demonstrated reuse (the
// WLFC second-touch filter), so the hot set keeps its hit rate while
// cold fills wait out the pressure. The fill fraction is
// deterministic simulated-time scheduler state, so the decision
// sequence is byte-reproducible; without a write buffer it is always
// zero and the policy is the paper's admit-everything.
type throttleAdmit struct {
	c         *Cache
	filter    *policy.AdmitFilter
	throttled bool
}

func (a *throttleAdmit) noteRead(lba int64) { a.filter.Touch(lba) }

// throttledNow advances the hysteresis state against the write
// buffer's current fill and reports the resulting verdict.
func (a *throttleAdmit) throttledNow() bool {
	fill := a.c.sched.BufferFill()
	if !a.throttled && fill >= throttleHigh {
		a.throttled = true
		a.c.stats.AdmitThrottleFlips++
		a.c.eventAdmitThrottle(true, fill)
	} else if a.throttled && fill <= throttleLow {
		a.throttled = false
		a.c.eventAdmitThrottle(false, fill)
	}
	return a.throttled
}

func (a *throttleAdmit) admitFill(lba int64) bool {
	return !a.throttledNow() || a.filter.Hot(lba)
}

func (a *throttleAdmit) admitWriteback(int64) bool { return !a.throttledNow() }

// checkpoint round-trips only the reuse filter: the throttled flag
// needs no serialisation because checkpoints are refused while the
// scheduler is active, and without an active write buffer the fill
// signal is zero and the flag provably false.
func (a *throttleAdmit) checkpoint() []policy.AdmitEntry { return a.filter.Checkpoint() }
func (a *throttleAdmit) restore(entries []policy.AdmitEntry) error {
	return a.filter.Restore(entries)
}

// ---- GC victim selection ----

// greedyGC is the paper's collector: the most-invalid block wins, and
// (unless the watermark forces collection) the victim must be at least
// half invalid to pay for its relocation traffic.
type greedyGC struct{}

func (greedyGC) victim(c *Cache, r *region, force bool) (int, int) {
	if !force && r.payoff == 0 {
		return none, 0
	}
	best, bestInvalid := none, 0
	for b := int(r.tail); b != none; b = int(c.meta[b].prev) {
		m := &c.meta[b]
		if invalid := m.consumed - m.valid; invalid > bestInvalid {
			best, bestInvalid = b, invalid
		}
	}
	if best == none || (!force && c.meta[best].payoff() == 0) {
		return none, 0
	}
	return best, bestInvalid
}

// costBenefitGC maximises the cost-benefit score of the GC survey:
// benefit/cost = (1-u)/(2u) * age, where u is the victim's valid
// fraction and age the host accesses since its last erase. Cold,
// mostly-invalid blocks score highest; a young block must be far
// emptier than an old one to be picked, which avoids relocating pages
// that are about to be invalidated anyway. The non-forced minimum-
// payoff guard is kept: the policies differ in which block they pick,
// not in when collection is economical at all.
type costBenefitGC struct{}

func (costBenefitGC) victim(c *Cache, r *region, force bool) (int, int) {
	if !force && r.payoff == 0 {
		return none, 0
	}
	best, bestInvalid, bestScore := none, 0, -1.0
	for b := int(r.tail); b != none; b = int(c.meta[b].prev) {
		m := &c.meta[b]
		invalid := m.consumed - m.valid
		if invalid <= 0 {
			continue
		}
		u := float64(m.valid) / float64(m.consumed)
		age := float64(c.seq - m.lastEraseSeq)
		var score float64
		if u == 0 {
			// Fully invalid: free space at pure erase cost. Ties go to
			// the least recently used candidate (scanned first).
			score = math.Inf(1)
		} else {
			score = (1 - u) / (2 * u) * age
		}
		if score > bestScore {
			best, bestInvalid, bestScore = b, invalid, score
		}
	}
	if best == none || (!force && c.meta[best].payoff() == 0) {
		return none, 0
	}
	return best, bestInvalid
}

// contentionGC is scheduler-informed victim selection: greedy's
// reclaimable-benefit signal (invalid pages) picks the nominal victim,
// then among candidates whose benefit is within gcSteerSlack of it the
// one with the least predicted bank wait wins, so erases steer toward
// banks that can start immediately instead of queueing behind in-flight
// commands — without surrendering reclaim efficiency (a less-invalid
// victim frees less space per erase, which costs more collections than
// the idle bank saves). While the foreground channel backlog exceeds
// gcDeferBacklog, non-forced collection defers entirely — the freed
// space can wait one operation, the queued host commands cannot — but
// at most gcDeferMax times in a row: a persistently deep backlog must
// not starve reclamation into evicting valid pages. Forced (watermark)
// collection never defers: aggregate capacity is already below target.
// Both signals are deterministic simulated-time scheduler state;
// without a clock every wait reads zero, so the policy picks greedy's
// victim whenever greedy would collect (it may additionally collect
// when greedy's nominal most-invalid candidate fails the payoff bar,
// because eligibility is filtered per candidate rather than checked on
// the winner).
type contentionGC struct {
	// streak counts deferrals since the last collection that
	// proceeded; it is a pure function of the (deterministic) decision
	// sequence, so it needs no checkpoint support — checkpoints are
	// refused while the scheduler is active, and without a clock the
	// streak never moves.
	streak int
}

func (g *contentionGC) victim(c *Cache, r *region, force bool) (int, int) {
	var now sim.Time
	if c.clock != nil {
		now = c.clock.Now()
		if backlog := c.sched.MaxBacklog(now); !force && backlog > gcDeferBacklog &&
			g.streak < gcDeferMax {
			g.streak++
			c.stats.GCDeferred++
			c.eventGCDeferred(backlog)
			return none, 0
		}
	}
	g.streak = 0
	if !force && r.payoff == 0 {
		return none, 0
	}
	// Pass 1 — greedy's choice: the most-invalid eligible candidate.
	// Eligibility is filtered before any steering, so collection
	// proceeds exactly when greedy's would; only the victim choice may
	// differ.
	best, bestInvalid := none, 0
	for b := int(r.tail); b != none; b = int(c.meta[b].prev) {
		m := &c.meta[b]
		invalid := m.consumed - m.valid
		if invalid <= 0 || (!force && m.payoff() == 0) {
			continue
		}
		if invalid > bestInvalid {
			best, bestInvalid = b, invalid
		}
	}
	if best == none || c.clock == nil {
		return best, bestInvalid
	}
	// Pass 2 — idle-bank steering among near-ties: any eligible
	// candidate whose benefit is within gcSteerSlack of greedy's may
	// displace it if its bank is predicted to be free sooner. Ties on
	// wait keep the more-invalid (then more-LRU) candidate.
	chosenInvalid := bestInvalid
	bestWait := c.sched.BankWait(best, now)
	for b := int(r.tail); b != none; b = int(c.meta[b].prev) {
		m := &c.meta[b]
		invalid := m.consumed - m.valid
		if invalid*gcSteerSlackDen < bestInvalid*gcSteerSlackNum || (!force && m.payoff() == 0) {
			continue
		}
		w := c.sched.BankWait(b, now)
		if w < bestWait || (w == bestWait && invalid > chosenInvalid) {
			bestWait, chosenInvalid, best = w, invalid, b
		}
	}
	return best, chosenInvalid
}
