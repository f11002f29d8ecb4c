package core

import (
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/sim"
)

// dirtySet is a Backing that tracks which LBAs hold data only the
// cache has: the test marks an LBA dirty as it writes it, and a
// write-back clears the mark.
type dirtySet map[int64]bool

func (d dirtySet) WritePage(lba int64) sim.Duration {
	delete(d, lba)
	return 0
}

// TestDirtyDataNeverDroppedSilently drives caches to death through the
// reclaim paths that drop or move dirty pages (eviction, GC and scrub
// relocation, retirement, wear rotation) and checks after every
// operation that each dirty LBA is still in Flash or was written back.
// The one permitted loss is an uncorrectable read of that very LBA.
func TestDirtyDataNeverDroppedSilently(t *testing.T) {
	for _, tc := range []struct {
		name string
		over func(*Config)
	}{
		// The first two die mid-relocation of a write-region page.
		{"program-erase-faults", func(cfg *Config) {
			cfg.FlashBytes = 8 * testMB
			cfg.WearAcceleration = 2000
			cfg.Faults = &fault.Plan{Seed: 1, ProgramFailRate: 1e-3, EraseFailRate: 1e-3, GrownBadRate: 0.2}
		}},
		{"wear-scrub", func(cfg *Config) {
			cfg.Seed = 3
			cfg.WearAcceleration = 20000
			cfg.ScrubEvery = 8
		}},
		{"read-faults-wear", func(cfg *Config) {
			cfg.WearAcceleration = 10000
			cfg.Faults = &fault.Plan{Seed: 11, ReadFlipRate: 0.05, ReadFlipMax: 8}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirty := dirtySet{}
			cfg := DefaultConfig(4 * testMB)
			cfg.Seed = 53
			cfg.Backing = dirty
			tc.over(&cfg)
			c := New(cfg)
			rng := sim.NewRNG(59)
			const maxOps = 2_000_000
			op := 0
			for ; op < maxOps && !c.Dead(); op++ {
				lba := int64(rng.Intn(6000))
				switch rng.Intn(3) {
				case 0:
					before := c.Stats().Uncorrectable
					c.Read(lba)
					if c.Stats().Uncorrectable > before {
						delete(dirty, lba) // the permitted loss
					}
				case 1:
					c.Insert(lba)
				default:
					dirty[lba] = true
					c.Write(lba)
				}
				for d := range dirty {
					if !c.Contains(d) {
						t.Fatalf("op %d: dirty lba %d left Flash without a write-back", op, d)
					}
				}
			}
			if !c.Dead() {
				t.Fatalf("cache survived %d operations; the reclaim paths under death went untested", maxOps)
			}
			t.Logf("died after %d ops: %+v", op, c.Stats())
		})
	}
}
