// Package fault is a deterministic, seedable fault injector for the
// NAND device model. Real NAND suffers failure classes the wear model
// alone cannot produce — transient read flips (read disturb, retention
// loss), program-status failures, erase failures, and permanently
// grown bad blocks — and the controller above the device is expected
// to survive all of them with retries, remapping and block retirement.
// A Plan describes one fault campaign (rates, burst windows,
// factory-bad blocks); the Injector executes it, consulted by nand.Device on every
// Read, Program and Erase.
//
// Determinism: the injector draws from one internal/sim RNG stream in
// operation order, so a fixed (Plan, operation sequence) pair always
// produces the same fault sequence — campaigns are exactly
// reproducible and failures are bisectable.
package fault

import "flashdc/internal/sim"

// Plan configures one fault-injection campaign. The zero value injects
// nothing. Rates are per-operation probabilities in [0, 1].
type Plan struct {
	// Seed drives the injection RNG. Campaigns with equal plans and
	// equal device operation sequences reproduce identical faults.
	Seed uint64

	// ReadFlipRate is the per-read probability of injecting transient
	// bit flips on top of the wear model's deterministic errors. A
	// retried read re-samples, so transient flips can (and usually do)
	// disappear on retry — the behaviour read-retry exists to exploit.
	ReadFlipRate float64
	// ReadFlipMax bounds the flips injected per affected read
	// (uniform in [1, ReadFlipMax]); 0 means 2.
	ReadFlipMax int

	// ProgramFailRate is the per-program probability of a program
	// status failure (the page is burned but holds garbage).
	ProgramFailRate float64
	// EraseFailRate is the per-erase probability of an erase failure
	// (the block keeps its old contents).
	EraseFailRate float64
	// GrownBadRate is the probability that a program or erase failure
	// is permanent: the block has grown bad and every later program
	// and erase on it fails until the controller retires it.
	GrownBadRate float64

	// FactoryBadBlocks are marked bad at device build time, before any
	// operation — the shipped-bad-block list on a real part's label.
	FactoryBadBlocks []int

	// Burst windows: when BurstEvery > 0, the operation counter is
	// divided into periods of BurstEvery consulted operations, and the
	// first BurstLen operations of each period run with every rate
	// multiplied by BurstFactor (0 means 10). This models correlated
	// error storms (temperature excursions, power events) rather than
	// a uniform background rate.
	BurstEvery, BurstLen uint64
	// BurstFactor multiplies the rates inside a burst window.
	BurstFactor float64
}

// Active reports whether the plan can inject anything at all.
func (p *Plan) Active() bool {
	return p != nil && (p.ReadFlipRate > 0 || p.ProgramFailRate > 0 ||
		p.EraseFailRate > 0 || len(p.FactoryBadBlocks) > 0)
}

// Stats counts the faults an Injector has produced, separating the
// injected failure supply from the organic wear failures the device
// produces on its own.
type Stats struct {
	// ReadInjections is the number of reads that received flips;
	// ReadFlips the total flips injected across them.
	ReadInjections, ReadFlips int64
	// ProgramFails and EraseFails count injected operation failures.
	ProgramFails, EraseFails int64
	// GrownBad counts failures escalated to a permanently bad block.
	GrownBad int64
}

// Merge adds other's counters into s, combining the injections of
// independent campaigns (one per shard) into one total.
func (s *Stats) Merge(other Stats) {
	s.ReadInjections += other.ReadInjections
	s.ReadFlips += other.ReadFlips
	s.ProgramFails += other.ProgramFails
	s.EraseFails += other.EraseFails
	s.GrownBad += other.GrownBad
}

// Injector executes a Plan. It is not safe for concurrent use; the
// device models are single-goroutine. A nil *Injector is valid and
// injects nothing.
type Injector struct {
	plan  Plan
	rng   *sim.RNG
	ops   uint64
	stats Stats
}

// NewInjector builds an injector for the plan.
func NewInjector(p Plan) *Injector {
	return &Injector{plan: p, rng: sim.NewRNG(p.Seed)}
}

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// InjectorState is the restorable mid-campaign state of an Injector:
// the RNG stream position, the operation counter (burst phase), and
// the counters. The Plan itself is not carried — a restore target is
// built from the same configuration, and a state applied to a
// different plan would silently change the campaign.
type InjectorState struct {
	RNG   sim.RNGState
	Ops   uint64
	Stats Stats
}

// Checkpoint captures the injector state. A nil injector checkpoints
// to the zero state.
func (in *Injector) Checkpoint() InjectorState {
	if in == nil {
		return InjectorState{}
	}
	return InjectorState{RNG: in.rng.State(), Ops: in.ops, Stats: in.stats}
}

// Restore overwrites the injector's stream position and counters with
// a checkpoint taken from an injector running the same plan.
func (in *Injector) Restore(st InjectorState) error {
	if err := in.rng.SetState(st.RNG); err != nil {
		return err
	}
	in.ops = st.Ops
	in.stats = st.Stats
	return nil
}

// factor returns the rate multiplier for the current operation and
// advances the operation counter.
func (in *Injector) factor() float64 {
	op := in.ops
	in.ops++
	p := &in.plan
	if p.BurstEvery == 0 || p.BurstLen == 0 {
		return 1
	}
	if op%p.BurstEvery < p.BurstLen {
		if p.BurstFactor > 0 {
			return p.BurstFactor
		}
		return 10
	}
	return 1
}

// hit reports whether an event with the given base rate fires under
// the current burst factor, given the uniform variate v.
func hit(v, rate, factor float64) bool {
	if rate <= 0 {
		return false
	}
	r := rate * factor
	if r > 1 {
		r = 1
	}
	return v < r
}

// Every decision consumes a fixed two RNG draws, so the stream
// advances identically regardless of rates and outcomes: sweeping one
// rate does not reshuffle where the other fault kinds land, which
// keeps campaign sweeps comparable point to point.

// ReadFlips returns how many transient bit flips to inject into a read
// (0 for most reads). Each call re-samples: flips are transient and
// independent between the original read and retries.
func (in *Injector) ReadFlips() int {
	if in == nil {
		return 0
	}
	f := in.factor()
	v, extra := in.rng.Float64(), in.rng.Float64()
	if !hit(v, in.plan.ReadFlipRate, f) {
		return 0
	}
	max := in.plan.ReadFlipMax
	if max <= 0 {
		max = 2
	}
	n := 1 + int(extra*float64(max))
	if n > max {
		n = max
	}
	in.stats.ReadInjections++
	in.stats.ReadFlips += int64(n)
	return n
}

// ProgramFails decides whether a program fails, and whether that
// failure is permanent (the block has grown bad).
func (in *Injector) ProgramFails() (fail, grown bool) {
	if in == nil {
		return false, false
	}
	f := in.factor()
	v, g := in.rng.Float64(), in.rng.Float64()
	if !hit(v, in.plan.ProgramFailRate, f) {
		return false, false
	}
	in.stats.ProgramFails++
	if g < in.plan.GrownBadRate {
		in.stats.GrownBad++
		return true, true
	}
	return true, false
}

// EraseFails decides whether an erase fails, and whether the failure
// is permanent.
func (in *Injector) EraseFails() (fail, grown bool) {
	if in == nil {
		return false, false
	}
	f := in.factor()
	v, g := in.rng.Float64(), in.rng.Float64()
	if !hit(v, in.plan.EraseFailRate, f) {
		return false, false
	}
	in.stats.EraseFails++
	if g < in.plan.GrownBadRate {
		in.stats.GrownBad++
		return true, true
	}
	return true, false
}
