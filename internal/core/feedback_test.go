package core

// Scheduler-feedback policy tests: the admission throttle's hysteresis,
// contention-aware GC's deferral streak and idle-bank steering, and the
// scrubber's idle-window queue. Everything here drives the policies
// against deterministic simulated-time scheduler state — the same
// occupancy surface the production feedback loop reads.

import (
	"testing"

	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// feedbackCache is smallCache with a clocked scheduler geometry, the
// precondition for any feedback signal to read non-idle.
func feedbackCache(t *testing.T, over func(*Config)) (*Cache, *sim.Clock) {
	t.Helper()
	c := smallCache(t, over)
	var clock sim.Clock
	c.AttachClock(&clock)
	return c, &clock
}

// TestThrottleHysteresis walks the admission throttle through a full
// engage/release/re-engage cycle: it must trip at the high-water mark,
// hold while the fill sits inside the hysteresis band, release only
// after the buffer drains to the low-water mark, and count a flip per
// engagement (not per release).
func TestThrottleHysteresis(t *testing.T) {
	c, clock := feedbackCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{Admit: policy.AdmitThrottle}
		cfg.Sched = sched.Config{Channels: 2, Banks: 2, WriteBufPages: 8}
	})
	// Two lookups mark lba 1000 hot before any pressure builds.
	c.Read(1000)
	c.Read(1000)
	// Six buffered writes reach the high-water mark (6/8 = throttleHigh)
	// without tripping it — the verdict is read before each admission.
	for lba := int64(0); lba < 6; lba++ {
		c.Write(lba)
	}
	if st := c.Stats(); st.WriteArounds != 0 || st.AdmitThrottleFlips != 0 {
		t.Fatalf("throttled while filling to the mark: arounds=%d flips=%d",
			st.WriteArounds, st.AdmitThrottleFlips)
	}
	// At the mark: the next write-back sheds to disk.
	c.Write(100)
	if st := c.Stats(); st.WriteArounds != 1 || st.AdmitThrottleFlips != 1 {
		t.Fatalf("engagement: arounds=%d flips=%d, want 1/1", st.WriteArounds, st.AdmitThrottleFlips)
	}
	// While throttled, cold fills are rejected and hot fills admitted.
	c.Insert(2000)
	if st := c.Stats(); st.AdmitRejects != 1 {
		t.Fatalf("cold fill under throttle: AdmitRejects = %d, want 1", st.AdmitRejects)
	}
	c.Insert(1000)
	if !c.Read(1000).Hit {
		t.Fatal("hot fill was not admitted under throttle")
	}
	// Still inside the band: the throttle holds.
	c.Write(101)
	if st := c.Stats(); st.WriteArounds != 2 || st.AdmitThrottleFlips != 1 {
		t.Fatalf("hysteresis hold: arounds=%d flips=%d, want 2/1", st.WriteArounds, st.AdmitThrottleFlips)
	}
	// Past the coalesce window the pending flushes drain (any scheduled
	// command drains due entries first); the fill falls to zero, which
	// releases the throttle without counting a flip.
	clock.Advance(sched.DefaultCoalesceDelay + sim.Microsecond)
	c.Read(1000)
	c.Write(200)
	st := c.Stats()
	if st.WriteArounds != 2 || st.AdmitThrottleFlips != 1 {
		t.Fatalf("release: arounds=%d flips=%d, want 2/1", st.WriteArounds, st.AdmitThrottleFlips)
	}
	// Refill to the mark: a second engagement, a second flip.
	for lba := int64(201); lba < 206; lba++ {
		c.Write(lba)
	}
	c.Write(206)
	st = c.Stats()
	if st.WriteArounds != 3 || st.AdmitThrottleFlips != 2 {
		t.Fatalf("re-engagement: arounds=%d flips=%d, want 3/2", st.WriteArounds, st.AdmitThrottleFlips)
	}
	checkInvariants(t, c)
}

// TestContentionGCDeferralStreak: under a deep foreground backlog,
// non-forced collection stands down — but only gcDeferMax times in a
// row, and a collection that proceeds resets the streak. Forced
// collection never defers.
func TestContentionGCDeferralStreak(t *testing.T) {
	c, clock := feedbackCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{GC: policy.GCContentionAware}
		cfg.Sched = sched.Config{Channels: 2, Banks: 2}
	})
	set := func(b, consumed, valid int) {
		c.meta[b].consumed = consumed
		c.meta[b].valid = valid
		c.retally()
	}
	r := fakeRegion(c, 0)
	set(0, 128, 10) // 118 invalid: well past the payoff bar
	gc := c.gcPol.(*contentionGC)

	// A long foreground program leaves a channel backlog past
	// gcDeferBacklog.
	c.sched.Foreground(0, sched.OpProgram, 3*sim.Millisecond)
	for i := 0; i < gcDeferMax; i++ {
		if b, _ := gc.victim(c, r, false); b != none {
			t.Fatalf("deferral %d collected despite the backlog", i)
		}
	}
	if st := c.Stats(); st.GCDeferred != int64(gcDeferMax) {
		t.Fatalf("GCDeferred = %d, want %d", st.GCDeferred, gcDeferMax)
	}
	// Streak cap: the next opportunity proceeds despite the backlog.
	if b, inv := gc.victim(c, r, false); b != 0 || inv != 118 {
		t.Fatalf("capped streak did not collect block 0 (b=%d inv=%d)", b, inv)
	}
	// The proceed reset the streak: deferral resumes.
	if b, _ := gc.victim(c, r, false); b != none {
		t.Fatal("streak did not reset after a collection proceeded")
	}
	if st := c.Stats(); st.GCDeferred != int64(gcDeferMax)+1 {
		t.Fatalf("GCDeferred = %d, want %d", st.GCDeferred, gcDeferMax+1)
	}
	// Forced (watermark) collection ignores the backlog outright.
	if b, _ := gc.victim(c, r, true); b == none {
		t.Fatal("forced collection deferred")
	}
	// With the backlog drained there is nothing to defer.
	clock.Advance(5 * sim.Millisecond)
	if b, _ := gc.victim(c, r, false); b == none {
		t.Fatal("collection deferred on an idle device")
	}
}

// TestContentionGCSteersNearTies: idle-bank steering may redirect the
// erase only within gcSteerSlack of greedy's reclaim benefit — a
// near-tie on a free bank wins, a clearly-worse candidate never does.
func TestContentionGCSteersNearTies(t *testing.T) {
	c, _ := feedbackCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{GC: policy.GCContentionAware}
		cfg.Sched = sched.Config{Channels: 2, Banks: 2}
	})
	set := func(b, consumed, valid int) {
		c.meta[b].consumed = consumed
		c.meta[b].valid = valid
		c.retally()
	}
	// Blocks 0 and 2 share channel 0 but sit on different banks.
	r := fakeRegion(c, 0, 2)
	set(0, 128, 8)  // 120 invalid: greedy's choice
	set(2, 128, 16) // 112 invalid: within 7/8 of 120 — a near-tie
	gc := c.gcPol.(*contentionGC)

	// Occupy greedy's bank with a background erase: the near-tie on the
	// idle bank takes the collection.
	c.sched.Background(0, sched.OpErase, 2*sim.Millisecond)
	if b, inv := gc.victim(c, r, false); b != 2 || inv != 112 {
		t.Fatalf("steering picked %d (%d invalid), want block 2 (112)", b, inv)
	}
	// Outside the slack the busy bank is endured: greedy's benefit wins.
	set(2, 128, 29) // 99 invalid: 99*8 < 120*7
	if b, inv := gc.victim(c, r, false); b != 0 || inv != 120 {
		t.Fatalf("steering surrendered too much benefit: picked %d (%d invalid), want block 0 (120)", b, inv)
	}
}

// TestContentionGCClocklessMatchesGreedy: without a clock the policy
// must pick greedy's victim whenever greedy collects, and may collect
// only candidates that individually clear the payoff bar when greedy's
// nominal winner fails it.
func TestContentionGCClocklessMatchesGreedy(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{GC: policy.GCContentionAware}
	})
	set := func(b, consumed, valid int) {
		c.meta[b].consumed = consumed
		c.meta[b].valid = valid
		c.retally()
	}
	r := fakeRegion(c, 0, 1, 2)
	set(0, 128, 10)  // 118 invalid
	set(1, 128, 120) // 8 invalid: below the bar
	set(2, 128, 40)  // 88 invalid
	ge, ginv := (greedyGC{}).victim(c, r, false)
	ce, cinv := (&contentionGC{}).victim(c, r, false)
	if ge == none || ge != ce || ginv != cinv {
		t.Fatalf("clockless contention-aware diverged from greedy: got %d/%d want %d/%d",
			ce, cinv, ge, ginv)
	}
	// Greedy's most-invalid candidate below the bar: greedy stands
	// down; contention-aware may still collect a candidate that clears
	// the bar on its own.
	r2 := fakeRegion(c, 3, 4)
	set(3, 128, 70) // 58 invalid: most invalid, under half
	set(4, 100, 50) // 50 invalid: exactly half of its consumed pages
	if b, _ := (greedyGC{}).victim(c, r2, false); b != none {
		t.Fatal("setup: greedy collected a sub-bar winner")
	}
	if b, inv := (&contentionGC{}).victim(c, r2, false); b != 4 || inv != 50 {
		t.Fatalf("contention-aware missed the bar-clearing candidate: %d/%d", b, inv)
	}
}

// TestGCNoPayoffSkipsWalk: with no listed block past the payoff bar,
// every GC policy's non-forced call returns none from the region's
// count alone, while forced calls still walk. Contention-aware runs
// its backlog deferral before the count check, so a deep backlog
// still counts GCDeferred and moves the streak as it always did.
func TestGCNoPayoffSkipsWalk(t *testing.T) {
	c, _ := feedbackCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{GC: policy.GCContentionAware}
		cfg.Sched = sched.Config{Channels: 2, Banks: 2}
	})
	set := func(b, consumed, valid int) {
		c.meta[b].consumed = consumed
		c.meta[b].valid = valid
		c.retally()
	}
	r := fakeRegion(c, 0, 1)
	set(0, 128, 100) // 28 invalid: under the bar
	set(1, 128, 128) // nothing invalid
	if r.payoff != 0 {
		t.Fatalf("payoff count %d over two sub-bar blocks, want 0", r.payoff)
	}
	gc := c.gcPol.(*contentionGC)
	policies := map[string]gcPolicy{"greedy": greedyGC{}, "cost-benefit": costBenefitGC{}, "contention-aware": gc}
	for name, p := range policies {
		if b, inv := p.victim(c, r, false); b != none || inv != 0 {
			t.Fatalf("%s: non-forced call with no eligible block returned %d/%d", name, b, inv)
		}
		if b, inv := p.victim(c, r, true); b != 0 || inv != 28 {
			t.Fatalf("%s: forced call returned %d/%d, want block 0 (28)", name, b, inv)
		}
	}
	// The count, not the walk, stands the call down: zeroed over an
	// eligible block, it hides that block from non-forced calls only.
	set(1, 128, 10) // 118 invalid
	if r.payoff != 1 {
		t.Fatalf("payoff count %d over one eligible block, want 1", r.payoff)
	}
	r.payoff = 0
	for name, p := range policies {
		if b, _ := p.victim(c, r, false); b != none {
			t.Fatalf("%s: non-forced call walked past a zero count to block %d", name, b)
		}
		if b, _ := p.victim(c, r, true); b != 1 {
			t.Fatalf("%s: forced call picked %d, want block 1", name, b)
		}
	}
	set(1, 128, 128)

	// A deep backlog with nothing eligible: deferral still comes first.
	c.sched.Foreground(0, sched.OpProgram, 3*sim.Millisecond)
	for i := 0; i < gcDeferMax; i++ {
		if b, _ := gc.victim(c, r, false); b != none {
			t.Fatalf("deferral %d collected block %d", i, b)
		}
	}
	if st := c.Stats(); st.GCDeferred != int64(gcDeferMax) || gc.streak != gcDeferMax {
		t.Fatalf("GCDeferred = %d, streak %d, want %d each", st.GCDeferred, gc.streak, gcDeferMax)
	}
	// The capped call proceeds past the backlog, resets the streak and
	// finds nothing to collect; the next call defers again.
	if b, _ := gc.victim(c, r, false); b != none || gc.streak != 0 {
		t.Fatalf("capped call returned %d with streak %d, want none and 0", b, gc.streak)
	}
	if b, _ := gc.victim(c, r, false); b != none || c.Stats().GCDeferred != int64(gcDeferMax)+1 {
		t.Fatalf("post-reset call: %d, GCDeferred %d, want none and %d", b, c.Stats().GCDeferred, gcDeferMax+1)
	}
}

// TestScrubIdleWindowDeferral: a refresh-due page on a busy bank joins
// the idle-window queue instead of migrating into the contention; once
// the bank frees, the drain lands the migration and counts the window.
func TestScrubIdleWindowDeferral(t *testing.T) {
	c, clock := feedbackCache(t, func(cfg *Config) {
		cfg.Sched = sched.Config{Channels: 2, Banks: 2}
		cfg.ScrubFeedback = true
		cfg.Retention = wear.RetentionParams{Accel: 1e8}
		cfg.RefreshThreshold = 0.5
	})
	c.Read(5)
	c.Insert(5)
	addr, ok := c.fcht.Get(5)
	if !ok {
		t.Fatal("setup: fill not mapped")
	}
	// Dwell (accelerated 1e8x) until the page predicts enough retention
	// errors to be refresh-due.
	clock.Advance(10 * sim.Second)
	st := c.fpst.At(addr)
	if got := c.dev.BitErrors(addr); float64(got) < 0.5*float64(st.Strength) {
		t.Fatalf("setup: dwell left only %d predicted bits against strength %d", got, st.Strength)
	}
	// Busy bank: the scrubber defers rather than queueing the migration.
	c.sched.Background(addr.Block(), sched.OpErase, 2*sim.Millisecond)
	if !c.deferScrub(addr) {
		t.Fatal("busy bank did not defer the migration")
	}
	if st := c.Stats(); st.ScrubDeferred != 1 {
		t.Fatalf("ScrubDeferred = %d, want 1", st.ScrubDeferred)
	}
	// Bank still busy: the entry keeps its place, no window yet.
	c.scrubDrainDeferred(true)
	if st := c.Stats(); st.ScrubWindows != 0 || st.RefreshRewrites != 0 {
		t.Fatalf("drain migrated into a busy bank: %+v", st)
	}
	if len(c.scrubDeferred) != 1 {
		t.Fatalf("deferred queue has %d entries, want 1", len(c.scrubDeferred))
	}
	// Idle window: the migration lands and counts once.
	clock.Advance(3 * sim.Millisecond)
	c.scrubDrainDeferred(true)
	stats := c.Stats()
	if stats.RefreshRewrites != 1 || stats.ScrubWindows != 1 {
		t.Fatalf("idle window: rewrites=%d windows=%d, want 1/1", stats.RefreshRewrites, stats.ScrubWindows)
	}
	if len(c.scrubDeferred) != 0 {
		t.Fatalf("deferred queue not drained: %d entries", len(c.scrubDeferred))
	}
	if !c.Read(5).Hit {
		t.Fatal("refreshed page lost")
	}
	checkInvariants(t, c)
}

// TestScrubDeferralOffPaths: deferral must decline when feedback is
// off, when the bank is idle, and a drained entry that went stale
// (invalidated since deferral) is dropped without a migration or a
// window.
func TestScrubDeferralOffPaths(t *testing.T) {
	// Feedback off: never defer, even on a busy bank.
	off, _ := feedbackCache(t, func(cfg *Config) {
		cfg.Sched = sched.Config{Channels: 2, Banks: 2}
	})
	off.Read(5)
	off.Insert(5)
	addrOff, _ := off.fcht.Get(5)
	off.sched.Background(addrOff.Block(), sched.OpErase, 2*sim.Millisecond)
	if off.deferScrub(addrOff) {
		t.Fatal("deferred with scrub feedback off")
	}

	on, clock := feedbackCache(t, func(cfg *Config) {
		cfg.Sched = sched.Config{Channels: 2, Banks: 2}
		cfg.ScrubFeedback = true
		cfg.Retention = wear.RetentionParams{Accel: 1e8}
		cfg.RefreshThreshold = 0.5
	})
	on.Read(5)
	on.Insert(5)
	addr, _ := on.fcht.Get(5)
	clock.Advance(sim.Millisecond) // let the fill's own program finish
	// Idle bank: migrate immediately, don't queue.
	if on.deferScrub(addr) {
		t.Fatal("deferred onto an idle bank")
	}
	// Queue the page, then invalidate it: the drain must drop it
	// silently.
	on.sched.Background(addr.Block(), sched.OpErase, 2*sim.Millisecond)
	if !on.deferScrub(addr) {
		t.Fatal("setup: busy bank did not defer")
	}
	on.invalidate(addr)
	clock.Advance(3 * sim.Millisecond)
	on.scrubDrainDeferred(true)
	st := on.Stats()
	if st.RefreshRewrites != 0 || st.ScrubMigrations != 0 || st.ScrubWindows != 0 {
		t.Fatalf("stale entry migrated: %+v", st)
	}
	if len(on.scrubDeferred) != 0 {
		t.Fatalf("stale entry kept: %d queued", len(on.scrubDeferred))
	}
}
