package core

import (
	"flashdc/internal/ecc"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// maxControllerStrength mirrors the hardware limit of section 4.1 (at
// most 12 correctable errors per 2KB page).
const maxControllerStrength = ecc.MaxStrength

// reconfigure is the programmable controller's response to a page
// whose observed bit errors reached its correction capability (section
// 5.2.1). It compares the latency cost of enforcing a stronger ECC
//
//	delta_t_cs = freq_i * delta_code_delay
//
// against the cost of reducing density MLC -> SLC
//
//	delta_t_d ~= delta_miss * (t_miss + t_hit) + freq_i * delta_SLC
//
// and stages the cheaper option in the FPST (applied on the block's
// next erase). It returns false when neither knob can absorb the
// observed error count any more.
func (c *Cache) reconfigure(addr nand.Addr, observedErrors int, freq float64) bool {
	block, st, slot := addr.Block(), c.fpst.At(addr), c.fpst.Slot(addr)

	// Candidate ECC strength: cover the observed errors with one bit
	// of margin, and always move forward. Every count past the
	// controller's limit is equally out of reach, so the clamp, done
	// in int, changes no choice and keeps the int32 from wrapping.
	target := ecc.Strength(min(observedErrors+1, maxControllerStrength+1))
	if target <= st.StagedStrength {
		target = st.StagedStrength + 1
	}
	eccPossible := st.StagedStrength < maxControllerStrength && target <= maxControllerStrength
	densityPossible := slot.StagedMode == wear.MLC

	if !eccPossible && !densityPossible {
		return false
	}

	choose := chooseECC
	switch {
	case eccPossible && !densityPossible:
		choose = chooseECC
	case !eccPossible && densityPossible:
		choose = chooseDensity
	default:
		dtcs := c.deltaTCS(st.StagedStrength, target, freq)
		dtd := c.deltaTD(freq)
		if dtcs <= dtd {
			choose = chooseECC
		} else {
			choose = chooseDensity
		}
	}

	if choose == chooseECC {
		c.eventECCBump(block, int(st.StagedStrength), int(target), observedErrors)
		c.fbst.At(block).TotalECC += int(target - st.StagedStrength)
		st.StagedStrength = target
		c.fgst.ECCReconfigs++
		return true
	}
	c.eventDensityDown(block, observedErrors)
	// Density reduction applies to the whole physical slot: both
	// sub-pages become one SLC page after the next erase.
	slot.StagedMode = wear.SLC
	c.fbst.At(block).TotalSLC++
	c.fgst.DensityReconfigs++
	return true
}

type reconfigChoice uint8

const (
	chooseECC reconfigChoice = iota
	chooseDensity
)

// deltaTCS is the average-latency cost of stronger ECC: the page's
// access frequency times the extra decode delay.
func (c *Cache) deltaTCS(cur, next ecc.Strength, freq float64) float64 {
	delta := c.lat.DecodeLatency(next) - c.lat.DecodeLatency(cur)
	return freq * delta.Seconds()
}

// deltaTD is the average-latency cost of dropping a page from MLC to
// SLC: losing one page of capacity raises the miss rate by the access
// frequency of the *marginal* cached page (for short-tailed workloads
// that page is essentially dead, which is why "the increased miss rate
// due to a reduction in density is small" there), while hits to this
// page get faster (delta_SLC is negative).
func (c *Cache) deltaTD(freq float64) float64 {
	tMiss := c.cfg.MissPenalty
	tHit := c.fgst.AvgHitLatency(c.hitLatencySeed())
	deltaMiss := c.marginalFreq
	if deltaMiss < 0 {
		// No capacity eviction has ever occurred: the cache has slack,
		// so giving up a page costs nothing.
		deltaMiss = 0
	}
	// delta_SLC is negative: SLC reads are faster than MLC reads.
	tm := nand.DefaultTiming()
	deltaSLC := (tm.ReadSLC - tm.ReadMLC).Seconds()
	return deltaMiss*(tMiss+tHit).Seconds() + freq*deltaSLC
}

// noteMarginal folds an evicted page's observed access frequency into
// the marginal-utility estimate (EWMA).
func (c *Cache) noteMarginal(st *tables.PageStatus) {
	f := c.pageFreq(st)
	if c.marginalFreq < 0 {
		c.marginalFreq = f
		return
	}
	const alpha = 0.02
	c.marginalFreq += alpha * (f - c.marginalFreq)
}

// hitLatencySeed is the t_hit default before any hit is recorded.
func (c *Cache) hitLatencySeed() sim.Duration {
	return nand.DefaultTiming().ReadMLC + c.lat.DecodeLatencyClean(c.cfg.baseStrength())
}
