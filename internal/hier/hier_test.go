package hier

import (
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

const mb = 1 << 20

func TestNewPanicsOnTinyDRAM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny DRAM did not panic")
		}
	}()
	New(Config{DRAMBytes: 100})
}

func TestDRAMOnlyBaseline(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb})
	if s.Flash() != nil {
		t.Fatal("baseline built a Flash cache")
	}
	lat := s.Handle(trace.Request{Op: trace.OpRead, LBA: 1})
	// Cold read must cost a disk access.
	if lat < 4*sim.Millisecond {
		t.Fatalf("cold read latency %v, want ~disk", lat)
	}
	lat = s.Handle(trace.Request{Op: trace.OpRead, LBA: 1})
	// Now in PDC: DRAM-speed.
	if lat > 10*sim.Microsecond {
		t.Fatalf("PDC hit latency %v", lat)
	}
	st := s.Stats()
	if st.PDCHits != 1 || st.DiskReads != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlashTierAbsorbsPDCMisses(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, Seed: 3})
	// Touch more pages than the PDC holds; second pass should hit
	// Flash, not disk.
	n := int64(2 * mb / 2048)
	for lba := int64(0); lba < n; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba})
	}
	diskBefore := s.Stats().DiskReads
	for lba := int64(0); lba < n; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba})
	}
	st := s.Stats()
	if st.FlashHits == 0 {
		t.Fatal("no Flash hits on second pass")
	}
	if st.DiskReads-diskBefore > n/10 {
		t.Fatalf("second pass still went to disk %d times", st.DiskReads-diskBefore)
	}
}

func TestWritebackGoesToFlash(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, Seed: 4})
	// Dirty more pages than the PDC holds: evictions must land in the
	// Flash write region, not on disk.
	n := int64(2 * mb / 2048)
	for lba := int64(0); lba < n; lba++ {
		s.Handle(trace.Request{Op: trace.OpWrite, LBA: lba})
	}
	if got := s.disk.Stats().Writes; got != 0 {
		t.Fatalf("disk saw %d writes with Flash present", got)
	}
	if s.Flash().Stats().Writes == 0 {
		t.Fatal("flash write region never used")
	}
}

func TestDrainFlushesEverything(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, Seed: 5})
	for lba := int64(0); lba < 200; lba++ {
		s.Handle(trace.Request{Op: trace.OpWrite, LBA: lba})
	}
	s.Drain()
	if s.disk.Stats().Writes == 0 {
		t.Fatal("drain wrote nothing to disk")
	}
	if got := len(s.pdc.DirtyPages()); got != 0 {
		t.Fatalf("%d dirty pages survive drain", got)
	}
}

func TestFlashLatencyBetweenDRAMAndDisk(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, Seed: 6})
	n := int64(2 * mb / 2048)
	for lba := int64(0); lba < n; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba})
	}
	// Find a page that is in Flash but not PDC: re-read early page.
	lat := s.Handle(trace.Request{Op: trace.OpRead, LBA: 0})
	if lat < 25*sim.Microsecond || lat > 2*sim.Millisecond {
		t.Fatalf("flash-tier hit latency %v", lat)
	}
}

func TestMultiPageRequests(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb})
	s.Handle(trace.Request{Op: trace.OpRead, LBA: 0, Pages: 8})
	st := s.Stats()
	if st.ReadPages != 8 || st.Requests != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlashReducesPowerAndKeepsBandwidth(t *testing.T) {
	// The Figure 9 claim, end to end: equal-area DRAM-only versus
	// DRAM+Flash hierarchy under a web-like workload. The Flash
	// system must draw substantially less memory+disk power without
	// losing throughput.
	run := func(dramMB, flashMB int64) (avg sim.Duration, pw float64) {
		s := New(Config{DRAMBytes: dramMB * mb, FlashBytes: flashMB * mb, Seed: 7})
		g := workload.MustNew("SPECWeb99", 0.02, 7) // ~36MB footprint
		for i := 0; i < 60000; i++ {
			s.Handle(g.Next())
		}
		st := s.Stats()
		elapsed := st.TotalLatency + sim.Duration(st.Requests)*100*sim.Microsecond
		return st.AvgLatency(), s.Power(elapsed).Total()
	}
	// Scaled version of the paper's config: 16MB DRAM vs 4MB DRAM +
	// 32MB Flash (same die area by Table 1 density ratios, roughly).
	dramLat, dramPower := run(16, 0)
	flashLat, flashPower := run(4, 32)
	if flashPower >= dramPower {
		t.Fatalf("flash system power %.3fW not below DRAM-only %.3fW", flashPower, dramPower)
	}
	// Throughput parity: average latency within 2x (paper: maintained
	// or improved).
	if flashLat > 2*dramLat {
		t.Fatalf("flash system latency %v far worse than DRAM-only %v", flashLat, dramLat)
	}
}

func TestCustomFlashConfigRespected(t *testing.T) {
	fc := core.DefaultConfig(16 * mb)
	fc.Split = false
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, Flash: fc})
	if s.Flash() == nil {
		t.Fatal("flash missing")
	}
}
