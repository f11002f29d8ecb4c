package core

import (
	"bytes"
	"reflect"
	"testing"

	"flashdc/internal/nand"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
)

// driveMixed replays n ops over lbas LBAs drawn from seed: a write
// with probability writeFrac, otherwise a read that fills on a miss.
// It returns every read's hit outcome in order.
func driveMixed(c *Cache, seed uint64, n, lbas int, writeFrac float64) []bool {
	rng := sim.NewRNG(seed)
	var hits []bool
	for i := 0; i < n; i++ {
		lba := int64(rng.Intn(lbas))
		if rng.Bool(writeFrac) {
			c.Write(lba)
			continue
		}
		hit := c.Read(lba).Hit
		hits = append(hits, hit)
		if !hit {
			c.Insert(lba)
		}
	}
	return hits
}

// TestSaveLoadMetadataRoundTrip saves and reloads a worked cache under
// the default device, an active channel/bank scheduler with a write
// buffer, and a fault plan with scrub, retention and disturb. The
// loaded cache holds the same pages and retirements, starts its device
// counters at zero and passes the integrity audit.
func TestSaveLoadMetadataRoundTrip(t *testing.T) {
	plain := DefaultConfig(8 * testMB)
	plain.Seed = 71
	withSched := plain
	withSched.Sched = sched.Config{Channels: 4, Banks: 2, WriteBufPages: 8}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", plain},
		{"sched", withSched},
		{"faults", checkpointTestConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			c := New(cfg)
			// Build up non-trivial state: fills, writes, promotions, GC.
			driveMixed(c, 73, 30000, 5000, 0.3)
			checkInvariants(t, c)

			var buf bytes.Buffer
			if err := c.SaveMetadata(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := loadMetadata(cfg, &buf)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, restored)
			if err := restored.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}

			if restored.ValidPages() != c.ValidPages() {
				t.Fatalf("valid pages %d != %d", restored.ValidPages(), c.ValidPages())
			}
			if got, want := restored.Stats().RetiredBlocks, c.Stats().RetiredBlocks; got != want {
				t.Fatalf("retired blocks %d != %d", got, want)
			}
			if got := restored.DeviceStats(); got != (nand.Stats{}) {
				t.Fatalf("loaded device counters %+v, want zero", got)
			}
			// Global statistics carried over (check before the
			// verification reads below mutate them).
			if restored.Global().Hits != c.Global().Hits {
				t.Fatal("FGST lost")
			}
			// Every cached page must be restored with a matching
			// descriptor and, without a fault plan, then hit. Under
			// one a read may fail uncorrectably or refresh the page,
			// moving others, so the descriptors are compared first.
			var cached []int64
			for lba := int64(0); lba < 5000; lba++ {
				origDesc, origOK := c.DescriptorFor(lba)
				newDesc, newOK := restored.DescriptorFor(lba)
				if origOK != newOK {
					t.Fatalf("lba %d presence diverged", lba)
				}
				if !origOK {
					continue
				}
				cached = append(cached, lba)
				if origDesc != newDesc {
					t.Fatalf("lba %d descriptor %v != %v", lba, newDesc, origDesc)
				}
			}
			if len(cached) == 0 {
				t.Fatal("no cached pages to verify")
			}
			for _, lba := range cached {
				if cfg.Faults == nil && !restored.Read(lba).Hit {
					t.Fatalf("lba %d misses after restore", lba)
				}
			}
			// Erase counts (wear) must match.
			for b := 0; b < c.Blocks(); b++ {
				if restored.EraseCount(b) != c.EraseCount(b) {
					t.Fatalf("block %d erase count %d != %d", b, restored.EraseCount(b), c.EraseCount(b))
				}
			}
		})
	}
}

// TestWarmRestartContinuesLikeUnbrokenRun: the metadata image keeps
// LRU recency, free-list order and the allocator's bookkeeping, so a
// fault-free cache loaded from it serves exactly the hits the cache
// that saved it goes on to serve.
func TestWarmRestartContinuesLikeUnbrokenRun(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 5
	cfg.WearAcceleration = 2000
	c := New(cfg)
	driveMixed(c, 7, 200000, 8000, 0.3)
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadMetadata(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lrus := func(c *Cache) [][]int {
		var out [][]int
		for _, r := range c.regions {
			var order []int
			for b := int(r.head); b != none; b = int(c.meta[b].next) {
				order = append(order, b)
			}
			out = append(out, order)
		}
		return out
	}
	if got, want := lrus(loaded), lrus(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("region LRU lists diverge after load:\n got %v\nwant %v", got, want)
	}

	want := driveMixed(c, 11, 100000, 8000, 0.3)
	got := driveMixed(loaded, 11, 100000, 8000, 0.3)
	if len(got) != len(want) {
		t.Fatalf("continuations issued %d and %d reads", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("continuation diverges at read %d of %d: loaded hit %v, original hit %v",
				i, len(want), got[i], want[i])
		}
	}
}

func TestRestoredCacheKeepsWorking(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 75
	c := New(cfg)
	for i := int64(0); i < 2000; i++ {
		c.Insert(i)
		if i%3 == 0 {
			c.Write(10000 + i)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := loadMetadata(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the restored cache hard enough to force allocation, GC
	// and eviction on the restored allocator state.
	driveMixed(restored, 77, 40000, 20000, 0.4)
	checkInvariants(t, restored)
}

func TestLoadMetadataValidation(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 79
	c := New(cfg)
	c.Insert(1)
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	// Mismatched capacity must be rejected.
	other := DefaultConfig(16 * testMB)
	other.Seed = 79
	if _, err := loadMetadata(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	// Garbage input must error, not panic.
	if _, err := loadMetadata(cfg, bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage metadata accepted")
	}
}
