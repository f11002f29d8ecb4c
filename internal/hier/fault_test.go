package hier

import (
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/fault"
	"flashdc/internal/workload"
)

// campaignSystem assembles a hierarchy whose Flash tier runs under a
// deterministic fault campaign with the background scrubber on.
func campaignSystem(seed uint64) *System {
	fc := core.DefaultConfig(8 * mb)
	fc.Faults = &fault.Plan{
		Seed:            seed + 100,
		ReadFlipRate:    2e-3,
		ProgramFailRate: 1e-3,
		EraseFailRate:   1e-2,
		GrownBadRate:    0.25,
	}
	fc.ScrubEvery = 256
	return New(Config{
		DRAMBytes:  1 * mb,
		FlashBytes: 8 * mb,
		Flash:      fc,
		Seed:       seed,
	})
}

// TestFaultCampaign100k is the headline robustness run: 100k requests
// under nonzero read/program/erase fault rates must complete with zero
// data corruption (per the hierarchy's integrity audit), with the
// retry, remap and retirement machinery all demonstrably exercised,
// and with the whole run bit-for-bit reproducible from the seed.
func TestFaultCampaign100k(t *testing.T) {
	run := func() (core.Stats, fault.Stats, int64) {
		s := campaignSystem(7)
		g := workload.MustNew("uniform", 1.0/16, 7)
		for i := 0; i < 100000; i++ {
			s.Handle(g.Next())
		}
		s.Drain()
		if err := s.CheckIntegrity(); err != nil {
			t.Fatalf("data corruption after campaign: %v", err)
		}
		return s.Flash().Stats(), s.Flash().FaultStats(), s.Flash().ValidPages()
	}
	st, fs, valid := run()

	if fs.ReadFlips == 0 || fs.ProgramFails == 0 || fs.EraseFails == 0 {
		t.Fatalf("campaign injected too little: %+v", fs)
	}
	if st.ReadRetries == 0 {
		t.Fatalf("no read retries despite %d injected flip events", fs.ReadInjections)
	}
	if st.Remaps == 0 || st.ProgramFailures == 0 {
		t.Fatalf("no remap activity despite %d program failures", fs.ProgramFails)
	}
	if st.RetiredBlocks == 0 {
		t.Fatalf("no block retired despite %d grown-bad escalations", fs.GrownBad)
	}
	if st.ScrubScans == 0 {
		t.Fatal("scrubber never ran")
	}
	if valid == 0 {
		t.Fatal("cache ended the campaign empty")
	}

	st2, fs2, valid2 := run()
	if st != st2 || fs != fs2 || valid != valid2 {
		t.Fatalf("same seed, different campaign:\nstats  %+v\n    vs %+v\nfaults %+v vs %+v\nvalid %d vs %d",
			st, st2, fs, fs2, valid, valid2)
	}
}

// TestErrReportsFlashDeath: a Flash tier worn to death turns Err from
// nil to ErrFlashDead for good, and the hierarchy keeps serving every
// request from DRAM and disk.
func TestErrReportsFlashDeath(t *testing.T) {
	fc := core.DefaultConfig(2 * mb)
	fc.WearAcceleration = 50000
	s := New(Config{DRAMBytes: mb / 4, FlashBytes: 2 * mb, Flash: fc, Seed: 7})
	g := workload.MustNew("alpha1", 1.0/16, 7)
	n := 0
	for ; !s.Flash().Dead(); n++ {
		if n == 100000 {
			t.Fatal("the Flash tier outlived 100000 requests")
		}
		if err := s.Err(); err != nil {
			t.Fatalf("request %d: Err = %v on a live Flash tier", n, err)
		}
		s.Handle(g.Next())
	}
	for i := 0; i < 1000; i++ {
		if s.Handle(g.Next()) <= 0 {
			t.Fatalf("request %d after the death was not served", n+i)
		}
		if err := s.Err(); err != ErrFlashDead {
			t.Fatalf("request %d: Err = %v, want ErrFlashDead", n+i, err)
		}
	}
	if st := s.Stats(); st.Requests != int64(n+1000) || st.DiskReads == 0 {
		t.Fatalf("degraded system not serving: %+v", st)
	}
}
