package core

import (
	"reflect"
	"testing"

	"flashdc/internal/policy"
	"flashdc/internal/sim"
)

func TestNewRejectsUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy name did not panic")
		}
	}()
	cfg := DefaultConfig(8 * testMB)
	cfg.Policies = policy.Set{Evict: "bogus"}
	New(cfg)
}

func TestPoliciesAccessorNormalized(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{Admit: policy.AdmitWLFC}
	})
	got := c.Policies()
	want := policy.Set{Evict: policy.EvictWearLRU, Admit: policy.AdmitWLFC, GC: policy.GCGreedy}
	if got != want {
		t.Fatalf("Policies() = %+v, want %+v", got, want)
	}
}

// TestWLFCSecondTouchFill: the first read-miss fill of a page is
// rejected (one touch), the fill after a second lookup is admitted.
func TestWLFCSecondTouchFill(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{Admit: policy.AdmitWLFC}
	})
	c.Read(7) // touch 1, miss
	c.Insert(7)
	if st := c.Stats(); st.AdmitRejects != 1 || st.Fills != 0 {
		t.Fatalf("first-touch fill: rejects=%d fills=%d, want 1/0", st.AdmitRejects, st.Fills)
	}
	if c.Read(7).Hit {
		t.Fatal("rejected page served from Flash")
	}
	c.Insert(7) // touch count is now 2: admitted
	if st := c.Stats(); st.AdmitRejects != 1 || st.Fills != 1 {
		t.Fatalf("second-touch fill: rejects=%d fills=%d, want 1/1", st.AdmitRejects, st.Fills)
	}
	if !c.Read(7).Hit {
		t.Fatal("admitted page missed")
	}
	checkInvariants(t, c)
}

// TestWLFCWriteAround: dirty write-backs bypass Flash and land on the
// backing store, invalidating any stale Flash copy on the way.
func TestWLFCWriteAround(t *testing.T) {
	rec := &recorder{}
	c := smallCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{Admit: policy.AdmitWLFC}
		cfg.Backing = rec
	})
	// Admit lba 9 into the read region first (two touches).
	c.Read(9)
	c.Read(9)
	c.Insert(9)
	if !c.Read(9).Hit {
		t.Fatal("setup: page not cached")
	}
	c.Write(9)
	st := c.Stats()
	if st.WriteArounds != 1 {
		t.Fatalf("WriteArounds = %d, want 1", st.WriteArounds)
	}
	if len(rec.pages) != 1 || rec.pages[0] != 9 {
		t.Fatalf("backing store saw %v, want [9]", rec.pages)
	}
	if _, ok := c.fcht.Get(9); ok {
		t.Fatal("write-around left a stale Flash copy mapped")
	}
	checkInvariants(t, c)
}

// fakeRegion builds an extra region whose LRU lists the given blocks
// front-to-back, for unit-testing victim selection against crafted
// per-block metadata. The blocks turn active and the region joins
// c.regions, so c.retally() recounts its payoff after a test edits
// their valid/consumed counters; only the fields the policies read
// are wired (the blocks stay on their home region's free list).
func fakeRegion(c *Cache, blocks ...int) *region {
	r := newRegion(len(c.regions))
	c.regions = append(c.regions, r)
	for i := len(blocks) - 1; i >= 0; i-- {
		m := &c.meta[blocks[i]]
		m.state, m.region = blockActive, r.id
		c.pushFront(r, blocks[i])
	}
	return r
}

// TestCMWearIsWearLRUWithoutRotation: cm-wear evicts the LRU tail
// like wear-lru and only drops the section 3.6 rotation, so a hot-write
// stream (with reads that overflow the read region, so both regions
// evict) against cm-wear and against wear-lru with a threshold no block
// can reach leaves identical counters, device traffic and per-block
// erase counts. Default wear-lru on the same stream must rotate, or the
// comparison proves nothing.
func TestCMWearIsWearLRUWithoutRotation(t *testing.T) {
	run := func(over func(*Config)) *Cache {
		c := smallCache(t, func(cfg *Config) {
			cfg.WearAcceleration = 1000
			if over != nil {
				over(cfg)
			}
		})
		rng := sim.NewRNG(33)
		for i := 0; i < 60000; i++ {
			if rng.Bool(0.8) {
				c.Write(int64(rng.Intn(48)))
			} else if lba := int64(rng.Intn(6000)); !c.Read(lba).Hit {
				c.Insert(lba)
			}
		}
		checkInvariants(t, c)
		return c
	}
	if swaps := run(nil).Stats().WearSwaps; swaps == 0 {
		t.Fatal("default wear-lru made no wear swaps; the stream is too gentle")
	}
	cm := run(func(cfg *Config) { cfg.Policies = policy.Set{Evict: policy.EvictCMWear} })
	lru := run(func(cfg *Config) { cfg.WearThreshold = 1 << 30 })
	if cm.Stats() != lru.Stats() {
		t.Fatalf("Stats differ:\ncm-wear  %+v\nwear-lru %+v", cm.Stats(), lru.Stats())
	}
	if cm.DeviceStats() != lru.DeviceStats() {
		t.Fatalf("DeviceStats differ:\ncm-wear  %+v\nwear-lru %+v", cm.DeviceStats(), lru.DeviceStats())
	}
	for b := 0; b < cm.Blocks(); b++ {
		if cm.EraseCount(b) != lru.EraseCount(b) {
			t.Fatalf("block %d: cm-wear %d erases, wear-lru %d", b, cm.EraseCount(b), lru.EraseCount(b))
		}
	}
}

// TestGCVictimSelection crafts block utilizations and checks each GC
// policy's choice: greedy takes the most invalid anywhere, cost-benefit
// weighs age and prefers fully invalid blocks absolutely.
func TestGCVictimSelection(t *testing.T) {
	c := smallCache(t, nil)
	set := func(b, consumed, valid int, eraseSeq uint64) {
		c.meta[b].consumed = consumed
		c.meta[b].valid = valid
		c.meta[b].lastEraseSeq = eraseSeq
		c.retally()
	}
	c.seq = 1000
	// LRU front-to-back: 0 1 2 3.
	r := fakeRegion(c, 0, 1, 2, 3)
	set(0, 128, 10, 900)  // most invalid (118), but MRU and young
	set(1, 128, 120, 100) // barely invalid, old
	set(2, 128, 40, 500)  // 88 invalid
	set(3, 128, 64, 100)  // 64 invalid, oldest tail block

	if b, inv := (greedyGC{}).victim(c, r, false); b != 0 || inv != 118 {
		t.Fatalf("greedy picked block %d (%d invalid), want 0 (118)", b, inv)
	}
	// Cost-benefit: block 0 scores (118/128)/(2*10/128)*100 ~ 590,
	// block 2 scores (88/128)/(2*40/128)*500 ~ 550, block 3 scores
	// (64/128)/(2*64/128)*900 = 450 — the young-but-empty block wins.
	if b, _ := (costBenefitGC{}).victim(c, r, false); b != 0 {
		t.Fatalf("cost-benefit picked block %d, want 0", b)
	}
	// A fully invalid block beats any finite score regardless of age.
	set(1, 128, 0, 1000)
	if b, inv := (costBenefitGC{}).victim(c, r, false); b != 1 || inv != 128 {
		t.Fatalf("cost-benefit picked block %d (%d invalid), want the fully invalid block 1", b, inv)
	}
	// The non-forced payoff guard holds for every policy: when the best
	// candidate is less than half invalid, nothing is collected.
	r2 := fakeRegion(c, 4)
	set(4, 128, 100, 0)
	if b, _ := (greedyGC{}).victim(c, r2, false); b != none {
		t.Fatal("greedy collected a low-payoff block without force")
	}
	if b, _ := (costBenefitGC{}).victim(c, r2, false); b != none {
		t.Fatal("cost-benefit collected a low-payoff block without force")
	}
	if b, _ := (greedyGC{}).victim(c, r2, true); b == none {
		t.Fatal("forced greedy skipped the only candidate")
	}
}

// TestEvictEmptyRegionPaths covers evict() on regions with no active
// blocks: with an open block it is closed and evicted; with nothing at
// all the cache is declared dead.
func TestEvictEmptyRegionPaths(t *testing.T) {
	c := smallCache(t, nil)
	r := c.regions[readRegion]
	// One fill opens a block; the region has no *active* (closed)
	// blocks yet, so eviction must close the open block first.
	c.Read(3)
	c.Insert(3)
	if r.head != none || r.open < 0 {
		t.Fatalf("setup: lru head=%d open=%d, want empty lru with an open block", r.head, r.open)
	}
	c.evict(r)
	if c.Dead() {
		t.Fatal("evicting the open block killed the cache")
	}
	if _, ok := c.fcht.Get(3); ok {
		t.Fatal("evicted page still mapped")
	}
	if r.open != -1 {
		t.Fatal("open block survived the eviction")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	checkInvariants(t, c)

	// A region with no active and no open space has nothing left to
	// give: eviction reports the cache dead.
	c2 := smallCache(t, nil)
	r2 := c2.regions[readRegion]
	c2.evict(r2)
	if !c2.Dead() {
		t.Fatal("evicting an all-free region did not declare the cache dead")
	}
}

// TestNewestActiveSingleBlock: with exactly one active block in the
// whole cache, newestActive returns it, and a wear rotation targeting
// that same block is a no-op (victim == newest).
func TestNewestActiveSingleBlock(t *testing.T) {
	c := smallCache(t, nil)
	c.Read(1)
	c.Insert(1)
	c.closeOpen(c.regions[readRegion])
	var active []int
	for b := range c.meta {
		if c.meta[b].state == blockActive {
			active = append(active, b)
		}
	}
	if len(active) != 1 {
		t.Fatalf("setup: %d active blocks, want 1", len(active))
	}
	b, _ := c.newestActive()
	if b != active[0] {
		t.Fatalf("newestActive = %d, want %d", b, active[0])
	}
	if c.maybeWearRotate(b) {
		t.Fatal("rotation into the newest block itself must be a no-op")
	}
	if st := c.Stats(); st.WearSwaps != 0 {
		t.Fatalf("WearSwaps = %d, want 0", st.WearSwaps)
	}
}

// wlfcWorkload drives mixed read/write traffic with enough reuse to
// populate the admission filter and both regions.
func wlfcWorkload(c *Cache, n int) {
	for i := 0; i < n; i++ {
		lba := int64(i % 97)
		if i%5 == 4 {
			c.Write(lba)
			continue
		}
		if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
}

// TestAdmitStateCheckpointRoundTrip: a WLFC cache's checkpoint carries
// the admission filter; a restored cache replays further traffic to a
// state bit-identical with the original's.
func TestAdmitStateCheckpointRoundTrip(t *testing.T) {
	mk := func() *Cache {
		return smallCache(t, func(cfg *Config) {
			cfg.Policies = policy.Set{Admit: policy.AdmitWLFC}
		})
	}
	a := mk()
	wlfcWorkload(a, 500)
	ck, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.AdmitState) == 0 {
		t.Fatal("WLFC checkpoint carries no admission state")
	}
	for i := 1; i < len(ck.AdmitState); i++ {
		if ck.AdmitState[i-1].LBA >= ck.AdmitState[i].LBA {
			t.Fatal("admission state is not in canonical LBA order")
		}
	}
	b := mk()
	if err := b.Restore(ck); err != nil {
		t.Fatal(err)
	}
	wlfcWorkload(a, 300)
	wlfcWorkload(b, 300)
	cka, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckb, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cka, ckb) {
		t.Fatal("restored cache diverged from the original after identical traffic")
	}
}

// TestPaperCheckpointHasNoAdmitState and the converse: restoring
// filter state into a paper-admission cache is a configuration
// mismatch, not a silent drop.
func TestAdmitStateConfigMismatch(t *testing.T) {
	w := smallCache(t, func(cfg *Config) {
		cfg.Policies = policy.Set{Admit: policy.AdmitWLFC}
	})
	wlfcWorkload(w, 200)
	ck, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	p := smallCache(t, nil)
	if err := p.Restore(ck); err == nil {
		t.Fatal("paper-admission cache accepted WLFC filter state")
	}
	pck, err := smallCache(t, nil).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(pck.AdmitState) != 0 {
		t.Fatalf("paper-admission checkpoint carries %d filter entries", len(pck.AdmitState))
	}
}

// TestPolicyZooTrafficInvariants runs every non-default single-policy
// substitution through mixed traffic and the cross-table audit — the
// policies choose victims, they must never corrupt the mechanism.
func TestPolicyZooTrafficInvariants(t *testing.T) {
	sets := []policy.Set{
		{Evict: policy.EvictCMWear},
		{GC: policy.GCCostBenefit},
		{Evict: policy.EvictCMWear, Admit: policy.AdmitWLFC, GC: policy.GCCostBenefit},
	}
	for _, ps := range sets {
		ps := ps
		t.Run(ps.String(), func(t *testing.T) {
			c := smallCache(t, func(cfg *Config) {
				cfg.Policies = ps
				cfg.FlashBytes = 2 * testMB // 8 blocks: heavy reclaim
			})
			for i := 0; i < 6000 && !c.Dead(); i++ {
				lba := int64((i * 31) % 2400)
				if i%4 == 3 {
					c.Write(lba)
					continue
				}
				if !c.Read(lba).Hit {
					c.Insert(lba)
				}
			}
			if c.Dead() {
				t.Fatal("fault-free traffic killed the cache")
			}
			st := c.Stats()
			if st.Evictions == 0 {
				t.Fatal("workload never reached eviction")
			}
			checkInvariants(t, c)
			if err := c.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
