// Retention loss and read disturb: the two error processes that
// dominate real NAND reliability besides write/erase wear (Luo,
// "Architectural Techniques for Improving NAND Flash Memory
// Reliability"). Both are modelled as deterministic functions of
// simulated state — dwell time since last program, accumulated cycles,
// block read count — so a simulation stays bit-reproducible, the
// scrubber can predict error counts exactly, and retries cannot wish
// the errors away (matching the wear model's contract).
package wear

import "flashdc/internal/sim"

// retentionSpecDwell is the Table 1 retention specification expressed
// in simulated time: DataRetentionYears of dwell.
const retentionSpecDwell = sim.Duration(DataRetentionYears * 365.25 * 24 * 3600 * 1e9)

// endurance returns the Table 1 cycle specification for a mode.
func endurance(m Mode) float64 {
	if m == MLC {
		return EnduranceMLC
	}
	return EnduranceSLC
}

// RetentionParams parameterises the retention-loss process: charge
// leaks from floating gates while a page sits programmed, at a rate
// that grows with accumulated write/erase damage to the tunnel oxide.
// The zero value disables the process entirely.
type RetentionParams struct {
	// Accel multiplies simulated dwell time before it is compared to
	// the retention specification — the temperature / time-compression
	// knob (an Arrhenius bake factor, or simply "one simulated second
	// is Accel real seconds"). Zero or negative disables retention.
	Accel float64
}

const (
	// retentionBitsAtSpec is the number of correctable flips a fresh
	// (zero cycle) page accumulates after DataRetentionYears of
	// accelerated dwell: the ITRS retention point says data is still
	// recoverable then, so it sits below the ECC budget.
	retentionBitsAtSpec = 4
	// retentionCycleFactor couples retention to wear: the leak rate is
	// multiplied by (1 + retentionCycleFactor * cycles/endurance(mode)).
	retentionCycleFactor = 4
)

// Enabled reports whether the process contributes errors.
func (p RetentionParams) Enabled() bool { return p.Accel > 0 }

// Bits returns the retention flips a page shows after dwelling for the
// given time with the given accumulated cycles. Deterministic and
// monotone in both dwell and cycles; zero when the process is disabled
// or the page was just programmed.
func (p RetentionParams) Bits(dwell sim.Duration, cycles float64, mode Mode) int {
	if !p.Enabled() || dwell <= 0 {
		return 0
	}
	wearFactor := 1.0
	if cycles > 0 {
		wearFactor += retentionCycleFactor * cycles / endurance(mode)
	}
	bits := retentionBitsAtSpec * wearFactor *
		(p.Accel * float64(dwell) / float64(retentionSpecDwell))
	if bits >= CellsPerPage {
		return CellsPerPage
	}
	return int(bits)
}

// DisturbParams parameterises the read-disturb process: every read of
// a block applies a weak program stress to all its pages, so sibling
// pages of frequently read data slowly accumulate flips until the
// block is erased. The zero value disables the process entirely.
type DisturbParams struct {
	// ReadsPerBit is the number of block reads that induce one
	// correctable flip on the block's pages (per the accounting of
	// Device.Read, which disturbs siblings only — a read never counts
	// against itself). Zero or negative disables the process.
	ReadsPerBit float64
}

// disturbCycleFactor couples disturb to wear, like the retention
// coupling: worn oxide disturbs faster.
const disturbCycleFactor = 1

// Enabled reports whether the process contributes errors.
func (p DisturbParams) Enabled() bool { return p.ReadsPerBit > 0 }

// Bits returns the disturb flips a page shows after its block served
// the given number of reads with the given accumulated cycles.
// Deterministic and monotone in both reads and cycles; zero when the
// process is disabled or the block was just erased. MLC pages disturb
// twice as fast as SLC, mirroring their tighter voltage margins.
func (p DisturbParams) Bits(reads int64, cycles float64, mode Mode) int {
	if !p.Enabled() || reads <= 0 {
		return 0
	}
	wearFactor := 1.0
	if cycles > 0 {
		wearFactor += disturbCycleFactor * cycles / endurance(mode)
	}
	modeFactor := 1.0
	if mode == MLC {
		modeFactor = 2
	}
	bits := float64(reads) * modeFactor * wearFactor / p.ReadsPerBit
	if bits >= CellsPerPage {
		return CellsPerPage
	}
	return int(bits)
}
