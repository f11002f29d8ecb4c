package hier

import (
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

func TestResetStatsClearsEverything(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, Seed: 1})
	for lba := int64(0); lba < 2000; lba++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: lba})
	}
	if s.Stats().Requests == 0 || s.DiskBusy() == 0 {
		t.Fatal("no activity before reset")
	}
	s.ResetStats()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats survive reset: %+v", st)
	}
	if s.DiskBusy() != 0 || s.FlashBusy() != 0 {
		t.Fatal("busy time survives reset")
	}
	if s.Now() != 0 {
		t.Fatal("clock survives reset")
	}
	// Cache contents must survive: a prior page still hits.
	lat := s.Handle(trace.Request{Op: trace.OpRead, LBA: 0})
	if lat > 2*sim.Millisecond {
		t.Fatalf("cache contents lost by reset (latency %v)", lat)
	}
}

func TestPowerWithAppTraffic(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb})
	s.Handle(trace.Request{Op: trace.OpRead, LBA: 1})
	base := s.Power(sim.Duration(sim.Second))
	loaded := s.PowerWithAppTraffic(sim.Duration(sim.Second), 1_000_000)
	if loaded.MemRead <= base.MemRead || loaded.MemWrite <= base.MemWrite {
		t.Fatal("app traffic did not raise memory activity power")
	}
	if loaded.MemIdle != base.MemIdle || loaded.Disk != base.Disk {
		t.Fatal("app traffic leaked into unrelated components")
	}
}

func TestDRAMOnlyWritebackReachesDisk(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb})
	n := int64(2 * mb / 2048)
	for lba := int64(0); lba < n; lba++ {
		s.Handle(trace.Request{Op: trace.OpWrite, LBA: lba})
	}
	if s.disk.Stats().Writes == 0 {
		t.Fatal("dirty evictions never reached the disk")
	}
}

func TestClockAdvancesWithLatency(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb})
	lat := s.Handle(trace.Request{Op: trace.OpRead, LBA: 9})
	if s.Now() != sim.Time(lat) {
		t.Fatalf("clock %v, latency %v", s.Now(), lat)
	}
}

func TestReadAheadCutsSequentialLatency(t *testing.T) {
	run := func(ra int) (sim.Duration, int64) {
		s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 32 * mb, ReadAhead: ra, Seed: 9})
		// Warm the flash tier with the whole range.
		n := int64(8000)
		for lba := int64(0); lba < n; lba++ {
			s.Handle(trace.Request{Op: trace.OpRead, LBA: lba})
		}
		s.ResetStats()
		// A long sequential scan (PDC too small to hold it).
		for lba := int64(0); lba < n; lba++ {
			s.Handle(trace.Request{Op: trace.OpRead, LBA: lba})
		}
		return s.Stats().AvgLatency(), s.Stats().Prefetched
	}
	latOff, pfOff := run(0)
	latOn, pfOn := run(16)
	if pfOff != 0 {
		t.Fatal("prefetch fired while disabled")
	}
	if pfOn == 0 {
		t.Fatal("prefetch never fired on a sequential scan")
	}
	if latOn >= latOff {
		t.Fatalf("readahead did not cut sequential latency: %v vs %v", latOn, latOff)
	}
}

func TestReadAheadHarmlessOnRandom(t *testing.T) {
	s := New(Config{DRAMBytes: 1 * mb, FlashBytes: 16 * mb, ReadAhead: 8, Seed: 10})
	rng := sim.NewRNG(11)
	for i := 0; i < 5000; i++ {
		s.Handle(trace.Request{Op: trace.OpRead, LBA: int64(rng.Intn(100000) * 3)})
	}
	st := s.Stats()
	// Random (non-consecutive) addresses must not trigger streams.
	if st.Prefetched > st.ReadPages/50 {
		t.Fatalf("random stream triggered %d prefetches", st.Prefetched)
	}
}
