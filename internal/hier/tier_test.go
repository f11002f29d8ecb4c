package hier

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flashdc/internal/dram"
	"flashdc/internal/obs"
	"flashdc/internal/trace"
)

func tierTestConfig() Config {
	return Config{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1}
}

// tier is one level's tier_<name>_* series.
type tier struct {
	Name                        string
	Reads, Hits, Misses, Writes int64
}

// observed assembles a hierarchy with a metrics observer attached.
func observed(cfg Config) (*System, *obs.Observer) {
	o := obs.New(obs.Options{Metrics: true})
	cfg.Observer = o
	return New(cfg), o
}

// tiers takes a final snapshot and returns the levels its tier_*
// series describe, fastest first.
func tiers(t *testing.T, o *obs.Observer) []tier {
	t.Helper()
	o.Finish()
	raw, err := json.Marshal(o.Live())
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var out []tier
	for _, name := range []string{"dram", "flash", "disk"} {
		p := "tier_" + name + "_"
		reads, ok := snap.Counters[p+"reads_total"]
		if !ok {
			continue
		}
		out = append(out, tier{name, reads, snap.Counters[p+"hits_total"],
			snap.Counters[p+"misses_total"], snap.Counters[p+"writes_total"]})
	}
	return out
}

// TestTierChainComposition: the hierarchy is DRAM, Flash, disk with
// Flash configured and DRAM, disk without; the tier_* series name the
// levels present.
func TestTierChainComposition(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{tierTestConfig(), "dram,flash,disk"},
		{Config{DRAMBytes: 1 << 20}, "dram,disk"},
	} {
		_, o := observed(tc.cfg)
		var names []string
		for _, ts := range tiers(t, o) {
			names = append(names, ts.Name)
		}
		if got := strings.Join(names, ","); got != tc.want {
			t.Fatalf("tiers = %s, want %s", got, tc.want)
		}
	}
}

// runTierScript drives every path that moves a tier counter: a
// sequential read run long enough to trigger readahead, a write sweep
// wider than the PDC so dirty pages are evicted down a level, strided
// multi-page re-reads served from every level, and a final Drain.
func runTierScript(s *System) {
	for lba := int64(0); lba < 100; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1})
	}
	for lba := int64(1000); lba < 1200; lba++ {
		s.Handle(trace.Request{Op: trace.OpWrite, LBA: lba, Pages: 1})
	}
	for lba := int64(0); lba < 300; lba += 3 {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 2})
	}
	s.Handle(trace.Request{Op: trace.OpWrite, LBA: 5000, Pages: 16})
	for lba := int64(1100); lba < 1140; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1})
	}
	s.Drain()
}

// TestTierStatsPinned pins the exact tier_* series (and the hierarchy
// counters they must agree with) for a fixed script on both hierarchy
// shapes, and checks that they survive Checkpoint/Restore. The series
// are derived from each level's own counters at snapshot time.
// Prefetch lookups count as tier reads; the Flash cache's own
// write-backs to disk do not count as disk-tier writes.
func TestTierStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		tiers []tier
		stats Stats
	}{
		{
			name: "flash",
			cfg:  Config{DRAMBytes: 64 * dram.PageSize, FlashBytes: 16 << 20, ReadAhead: 4, Seed: 1},
			tiers: []tier{
				{Name: "dram", Reads: 884, Hits: 536, Misses: 348, Writes: 216},
				{Name: "flash", Reads: 348, Hits: 114, Misses: 234, Writes: 216},
				{Name: "disk", Reads: 234, Hits: 234, Misses: 0, Writes: 0},
			},
			stats: Stats{Requests: 441, ReadPages: 340, WritePages: 216,
				PDCHits: 134, FlashHits: 73, DiskReads: 234, Prefetched: 142},
		},
		{
			name: "dram-only",
			cfg:  Config{DRAMBytes: 64 * dram.PageSize, ReadAhead: 4, Seed: 1},
			tiers: []tier{
				{Name: "dram", Reads: 884, Hits: 536, Misses: 348, Writes: 216},
				{Name: "disk", Reads: 348, Hits: 348, Misses: 0, Writes: 216},
			},
			stats: Stats{Requests: 441, ReadPages: 340, WritePages: 216,
				PDCHits: 134, DiskReads: 348, Prefetched: 142},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, o := observed(tc.cfg)
			runTierScript(s)
			st := s.Stats()
			st.TotalLatency = 0
			if got := tiers(t, o); !reflect.DeepEqual(got, tc.tiers) {
				t.Fatalf("tier series\n got %+v\nwant %+v", got, tc.tiers)
			}
			if st != tc.stats {
				t.Fatalf("stats\n got %+v\nwant %+v", st, tc.stats)
			}
			// Drain makes Flash flush its dirty pages to the drive, yet
			// those write-backs are Flash's own traffic, not disk-tier
			// writes.
			if tc.cfg.FlashBytes > 0 && s.disk.Stats().Writes == 0 {
				t.Fatal("Drain did not flush Flash's dirty pages to the drive")
			}

			ck, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			resumed, ro := observed(tc.cfg)
			if err := resumed.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if got := tiers(t, ro); !reflect.DeepEqual(got, tc.tiers) {
				t.Fatalf("restored tier series %+v", got)
			}
		})
	}
}

// TestTierStatsCounters: the tier_* series must account for every page
// access — reads split into hits and misses at each level, misses
// cascading down, the bottom tier always hitting.
func TestTierStatsCounters(t *testing.T) {
	s, o := observed(tierTestConfig())
	const pages = 500
	for lba := int64(0); lba < pages; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1})
	}
	ts := tiers(t, o)
	if len(ts) != 3 {
		t.Fatalf("%d tiers", len(ts))
	}
	dramTS, flashTS, diskTS := ts[0], ts[1], ts[2]
	if dramTS.Reads != pages || dramTS.Hits+dramTS.Misses != dramTS.Reads {
		t.Fatalf("dram reads don't balance: %+v", dramTS)
	}
	// Cold reads: every DRAM miss walks down to Flash, every Flash
	// miss to disk, and the disk never misses.
	if flashTS.Reads != dramTS.Misses || diskTS.Reads != flashTS.Misses {
		t.Fatalf("miss cascade broken: dram %+v flash %+v disk %+v", dramTS, flashTS, diskTS)
	}
	if diskTS.Misses != 0 || diskTS.Hits != diskTS.Reads {
		t.Fatalf("bottom tier must always hit: %+v", diskTS)
	}
	// Re-reading the same pages now hits the caches.
	for lba := int64(0); lba < pages; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba, Pages: 1})
	}
	if gained := tiers(t, o)[2].Reads - diskTS.Reads; gained != 0 {
		t.Fatalf("warm re-read went to disk %d times", gained)
	}
}

// TestHandleHealthy: a healthy hierarchy reports no error.
func TestHandleHealthy(t *testing.T) {
	s := New(tierTestConfig())
	if lat := s.Handle(trace.Request{Op: trace.OpWrite, LBA: 1, Pages: 1}); lat <= 0 {
		t.Fatalf("Handle latency = %v", lat)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}
