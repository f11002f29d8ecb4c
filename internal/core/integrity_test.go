package core

import (
	"strings"
	"testing"
	"time"

	"flashdc/internal/fault"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
)

// populatedCache returns a cache with enough traffic behind it that
// every structure the audit covers is non-trivial: valid pages in
// both regions, active LRU blocks, and a clean CheckIntegrity.
func populatedCache(t *testing.T) *Cache {
	t.Helper()
	c := smallCache(t, nil)
	for i := 0; i < 6000; i++ {
		lba := int64(i % 900)
		if i%3 == 0 {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("healthy cache failed audit: %v", err)
	}
	return c
}

// anyMapping returns one live FCHT entry.
func anyMapping(t *testing.T, c *Cache) (int64, nand.Addr) {
	t.Helper()
	var lba int64
	var addr nand.Addr
	found := false
	c.fcht.Range(func(l int64, a nand.Addr) bool {
		lba, addr, found = l, a, true
		return false
	})
	if !found {
		t.Fatal("populated cache has no mappings")
	}
	return lba, addr
}

// corrupt must make the audit fail with a message containing want.
func assertCaught(t *testing.T, c *Cache, want string) {
	t.Helper()
	err := c.CheckIntegrity()
	if err == nil {
		t.Fatalf("audit missed corruption (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("audit reported %q, want mention of %q", err, want)
	}
}

func TestIntegrityCatchesValidCountDrift(t *testing.T) {
	c := populatedCache(t)
	_, addr := anyMapping(t, c)
	c.meta[addr.Block()].valid++
	assertCaught(t, c, "valid pages")
}

func TestIntegrityCatchesGlobalCountDrift(t *testing.T) {
	c := populatedCache(t)
	c.totalValid++
	assertCaught(t, c, "entries")
}

func TestIntegrityCatchesOrphanFCHTEntry(t *testing.T) {
	c := populatedCache(t)
	// Map a never-written LBA to a page that is not valid: the entry
	// has no backing data.
	var orphan nand.Addr
	found := false
	for b := range c.meta {
		if c.meta[b].state == blockRetired {
			continue
		}
		for s := 0; s < nand.SlotsPerBlock && !found; s++ {
			a := nand.PageAddr(b, s, 0)
			if !c.fpst.At(a).Valid {
				orphan, found = a, true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no invalid page to orphan onto")
	}
	c.fcht.Put(1<<40, orphan)
	assertCaught(t, c, "maps to")
}

func TestIntegrityCatchesStaleFPSTValidBit(t *testing.T) {
	c := populatedCache(t)
	lba, addr := anyMapping(t, c)
	// Clear the valid bit behind the FCHT's back: the mapping now
	// points at a page the tables disown.
	st := c.fpst.At(addr)
	st.Valid = false
	st.LBA = tables.InvalidLBA
	_ = lba
	assertCaught(t, c, "maps to")
}

func TestIntegrityCatchesCrossMappedLBA(t *testing.T) {
	c := populatedCache(t)
	lba, addr := anyMapping(t, c)
	// Rewrite the page's LBA tag so mapping and page disagree.
	c.fpst.At(addr).LBA = lba + 1
	assertCaught(t, c, "maps to")
}

func TestIntegrityCatchesLRUDetachment(t *testing.T) {
	c := populatedCache(t)
	// Splice an active block's LRU neighbours around it without
	// touching its metadata: the block now belongs to no structure.
	detached := -1
	for b := range c.meta {
		if m := &c.meta[b]; m.state == blockActive && m.prev != none {
			r := c.regions[m.region]
			c.meta[m.prev].next = m.next
			if m.next != none {
				c.meta[m.next].prev = m.prev
			} else {
				r.tail = m.prev
			}
			// Keep the population tally consistent so the sharper
			// orphan-block check is the one that fires.
			r.blocks--
			detached = b
			break
		}
	}
	if detached < 0 {
		t.Fatal("no active block to detach")
	}
	assertCaught(t, c, "belongs to no region structure")
}

// TestIntegrityCatchesLRUCycle links a region's LRU tail back to its
// head: the audit must report the loop rather than follow it forever.
func TestIntegrityCatchesLRUCycle(t *testing.T) {
	c := populatedCache(t)
	r := c.regions[readRegion]
	if r.head == r.tail {
		t.Fatal("setup: read region needs two LRU blocks")
	}
	c.meta[r.tail].next = r.head
	audit := make(chan error, 1)
	go func() { audit <- c.CheckIntegrity() }()
	select {
	case err := <-audit:
		if want := "claimed by both region 0 LRU and region 0 LRU"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit reported %v, want mention of %q", err, want)
		}
	case <-time.After(time.Minute):
		t.Fatal("audit did not return on a cyclic LRU list")
	}
}

func TestIntegrityCatchesLRUBackLinkDrift(t *testing.T) {
	c := populatedCache(t)
	r := c.regions[readRegion]
	c.meta[r.tail].prev = r.tail
	assertCaught(t, c, "links back to")
	c = populatedCache(t)
	r = c.regions[readRegion]
	r.tail = c.meta[r.tail].prev
	assertCaught(t, c, "LRU tail is block")
}

func TestIntegrityCatchesRegionPopulationDrift(t *testing.T) {
	c := populatedCache(t)
	c.regions[0].blocks++
	assertCaught(t, c, "accounts for")
}

func TestIntegrityCatchesRetiredBlockOnLRU(t *testing.T) {
	c := populatedCache(t)
	// Mark an active block retired while leaving it on the LRU; its
	// mappings also become dangling, so some audit stage must trip.
	for b := range c.meta {
		if c.meta[b].state == blockActive {
			c.meta[b].state = blockRetired
			break
		}
	}
	if err := c.CheckIntegrity(); err == nil {
		t.Fatal("audit missed a retired block still on the LRU")
	}
}

func TestIntegrityCatchesCounterOverflow(t *testing.T) {
	c := populatedCache(t)
	// consumed beyond the block's geometry.
	for b := range c.meta {
		if c.meta[b].state == blockActive {
			// Keep valid == tables so earlier stages stay quiet.
			c.meta[b].consumed = 10 * nand.SlotsPerBlock
			c.retally() // keep the payoff recount quiet too
			break
		}
	}
	assertCaught(t, c, "counters out of range")
}

func TestIntegrityCatchesRegionTallyDrift(t *testing.T) {
	c := populatedCache(t)
	c.regions[0].pages++
	assertCaught(t, c, "tallies")
	c = populatedCache(t)
	c.regions[len(c.regions)-1].valid--
	assertCaught(t, c, "tallies")
}

// walkRegionPages sums the pages and live pages of r's open and LRU
// blocks by walking them, the computation the region tallies replace.
func walkRegionPages(c *Cache, r *region) (total, valid int) {
	for b := int(r.head); b != none; b = int(c.meta[b].next) {
		total += c.dev.PagesPerBlock(b)
		valid += c.meta[b].valid
	}
	if r.open >= 0 {
		total += c.dev.PagesPerBlock(r.open)
		valid += c.meta[r.open].valid
	}
	return total, valid
}

// TestRegionTalliesMatchWalk drives caches through every path that moves
// blocks between regions or changes slot densities — fills, evictions,
// GC relocation, wear rotation, promotion, reconfiguration, program and
// erase failures with retirement — and checks after every operation
// that the O(1) tallies equal a walk of the region's blocks.
func TestRegionTalliesMatchWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		over func(*Config)
	}{
		{"split", nil},
		{"unified", func(cfg *Config) { cfg.ReadFraction = 1 }},
		{"wear", func(cfg *Config) {
			cfg.WearAcceleration = 2000
			cfg.HotSaturation = 4
			cfg.WearThreshold = 1
		}},
		{"faults", func(cfg *Config) {
			cfg.Faults = &fault.Plan{Seed: 9, ProgramFailRate: 0.002, EraseFailRate: 0.01, GrownBadRate: 0.1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smallCache(t, tc.over)
			rng := sim.NewRNG(11)
			for i := 0; i < 30000 && !c.Dead(); i++ {
				lba := int64(rng.Intn(6000))
				if rng.Bool(0.3) {
					c.Write(lba)
				} else if !c.Read(lba).Hit {
					c.Insert(lba)
				}
				for _, r := range c.regions {
					wantTotal, wantValid := walkRegionPages(c, r)
					if r.pages != wantTotal || r.valid != wantValid {
						t.Fatalf("op %d: region %d tallies (%d, %d), walk (%d, %d)",
							i, r.id, r.pages, r.valid, wantTotal, wantValid)
					}
				}
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			t.Logf("evictions %d, gc %d, swaps %d, promotions %d, retired %d, density %d",
				st.Evictions, st.GCRuns, st.WearSwaps, st.Promotions, st.RetiredBlocks, c.Global().DensityReconfigs)
		})
	}
}
