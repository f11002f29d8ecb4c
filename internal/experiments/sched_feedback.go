package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

func init() { register("sched_feedback", schedFeedback) }

// schedFeedback measures what closing the occupancy feedback loop buys:
// the same bursty mix runs at each channel count with the feedback
// policies off (paper defaults) and on (contention-aware GC victim
// selection plus write-buffer-driven admission throttling). The load
// alternates write bursts — the paper's periodic write-back flushes
// from the primary disk cache, dumped faster than the NAND write
// buffer drains — with closed-loop read service over a hot set resident
// in the read region; the churn spans several times the write region,
// so reclaim runs as GC with erase traffic. Without feedback every
// burst overflows the buffer into forced flushes and a deep channel
// backlog that the following reads queue behind, exactly the
// interference Figure 1(b) warns about. With feedback the throttle
// sheds the overflow to disk (write-around) while the buffer is above
// its high-water mark, and GC defers off deep backlogs and steers
// erases toward idle banks. The win shows up as lower bank wait and
// zero forced flushes at an equal-or-better hit rate, with the
// request-latency tail (p99/p999) reported for both arms.
func schedFeedback(o Options) *Table {
	t := &Table{
		ID:     "sched_feedback",
		Title:  "Scheduler-informed GC + admission feedback vs channel count",
		Note:   fmt.Sprintf("split cache, 64-write bursts through a 16-page write buffer alternating with 64 hot reads, %.4g scale of 256MB", o.Scale),
		Header: []string{"channels", "feedback", "hit_pct", "bank_wait_ms", "forced_flushes", "p99_us", "p999_us", "gc_deferred", "throttle_flips"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 150000
	}
	for _, channels := range []int{1, 2, 4, 8} {
		for _, feedback := range []bool{false, true} {
			cfg := core.DefaultConfig(int64(float64(256<<20) * o.Scale))
			cfg.Programmable = false
			cfg.Seed = o.Seed
			cfg.Sched = sched.Config{Channels: channels, Banks: 2, WriteBufPages: 16}
			if feedback {
				cfg.Policies = policy.Set{
					GC:    policy.GCContentionAware,
					Admit: policy.AdmitThrottle,
				}
			}
			c := core.New(cfg)
			var clock sim.Clock
			c.AttachClock(&clock)
			rng := sim.NewRNG(o.Seed + 79)
			hot := int64(float64(c.CapacityPages()) * 0.5)
			// ~1.5x the write region (10% of blocks): rewrites keep
			// invalidating resident pages, so reclaim runs as GC with
			// erase traffic rather than as clean LRU eviction.
			churn := int64(float64(c.CapacityPages()) * 0.15)
			// Warm the read region with two passes over the hot set; the
			// second pass also marks every hot page reused, so throttled
			// refills during measurement always pass the admission filter.
			for pass := 0; pass < 2; pass++ {
				for lba := int64(0); lba < hot; lba++ {
					lat, _ := flashAccess(c, trace.OpRead, lba)
					clock.Advance(lat + 10*sim.Microsecond)
				}
			}
			// Re-anchor the device timelines so bank waits and flush
			// counts measure only the mixed phase.
			c.ResetDeviceStats()
			var lats sim.Histogram
			var reads, hits int64
			const burstLen, readLen = 64, 64
			// At least one round, so a budget under one round still
			// measures something.
			for round := 0; round < max(1, requests/(burstLen+readLen)); round++ {
				// Write burst: a batch of dirty write-backs over a span
				// several times the write region, issued nearly
				// back-to-back — the disk cache flushes far faster than
				// the NAND write buffer drains.
				for i := 0; i < burstLen; i++ {
					lat := c.Write(hot + int64(rng.Uint64n(uint64(churn))))
					lats.Observe(lat)
					clock.Advance(lat + 1*sim.Microsecond)
				}
				// Read service: closed-loop demand reads over the hot
				// set, which queue behind whatever the burst left on the
				// channels and banks.
				for i := 0; i < readLen; i++ {
					reads++
					lat, hit := flashAccess(c, trace.OpRead, int64(rng.Uint64n(uint64(hot))))
					if hit {
						hits++
					}
					lats.Observe(lat)
					clock.Advance(lat + 50*sim.Microsecond)
				}
			}
			label := "off"
			if feedback {
				label = "on"
			}
			st := c.Stats()
			ss := c.SchedStats()
			t.AddRow(channels, label,
				100*float64(hits)/float64(reads),
				ss.BankWaitTime.Seconds()*1e3,
				ss.ForcedFlushes,
				lats.Quantile(0.99).Microseconds(),
				lats.Quantile(0.999).Microseconds(),
				st.GCDeferred, st.AdmitThrottleFlips)
		}
	}
	return t
}
