// Integrity: data survives the things that go wrong. Part 1 shows the
// section 4 controller pipeline on real bytes — protect a 2KB page
// with BCH+CRC, age a simulated NAND block until its reads report
// worn cells, flip that many bits of the page, and watch the real
// decoder recover the data (and report honestly when the code is too
// weak). Part 2 runs a full fault-injection campaign against the
// cache: transient read flips, program/erase failures and grown bad
// blocks hammer the device, while the controller answers with read
// retries, remapping, block retirement and background scrubbing — and
// an end-of-run audit proves no cached page ever served wrong data.
package main

import (
	"bytes"
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/ecc"
	"flashdc/internal/fault"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

func main() {
	codecDemo()
	campaignDemo()
}

// wornRNG seeds the bit flips of page a from the device seed, the
// address and the block's erase count, so a worn page fails the same
// way on every read until its block is erased.
func wornRNG(seed uint64, a nand.Addr, erases int) *sim.RNG {
	return sim.NewRNG(seed ^ uint64(a.Block())<<40 ^ uint64(a.Slot())<<24 ^ uint64(a.Sub())<<16 ^ uint64(erases))
}

// codecDemo: one page, real wear, real BCH decode.
func codecDemo() {
	const seed = 42
	dev := nand.New(nand.Config{
		Blocks:           4,
		InitialMode:      wear.MLC,
		Seed:             seed,
		WearAcceleration: 3000, // compress years of wear into the demo
	})
	codec := ecc.NewCodec()
	rng := sim.NewRNG(7)
	payload := make([]byte, ecc.PageSize)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}

	fmt.Println("== Part 1: the ECC pipeline on worn cells ==")
	fmt.Println("aging block 0 with erase cycles...")
	for cycles := 0; dev.BitErrors(nand.PageAddr(0, 0, 0)) < 4; cycles++ {
		if _, err := dev.Erase(0); err != nil {
			panic(err)
		}
	}
	errs := dev.BitErrors(nand.PageAddr(0, 0, 0))
	fmt.Printf("block 0 now develops %d bit errors per page read\n\n", errs)

	for _, t := range []ecc.Strength{ecc.Strength(errs - 2), ecc.Strength(errs + 2)} {
		if t < 1 {
			t = 1
		}
		spare := codec.Encode(t, payload)
		a := nand.PageAddr(0, 0, 0)
		if _, err := dev.Program(a, 1); err != nil {
			panic(err)
		}
		res, err := dev.Read(a)
		if err != nil {
			panic(err)
		}
		// The device stores the page's token, not its bytes: flip the
		// worn cells in the demo's own copy of the page.
		data := bytes.Clone(payload)
		ecc.FlipBits(wornRNG(seed, a, dev.EraseCount(0)), res.BitErrors, data, spare)
		fmt.Printf("ECC strength t=%d against %d worn cells:\n", t, res.BitErrors)
		corrected, decErr := codec.Decode(t, data, spare)
		switch {
		case decErr != nil:
			fmt.Printf("  decoder: %v (the programmable controller would now\n", decErr)
			fmt.Println("  stage a stronger code or an MLC->SLC switch, section 5.2)")
		case bytes.Equal(data, payload):
			fmt.Printf("  recovered bit-exact after correcting %d errors\n", corrected)
		default:
			fmt.Println("  SILENT CORRUPTION — must never happen")
		}
		fmt.Println()
		if _, err := dev.Erase(0); err != nil {
			panic(err)
		}
	}
}

// campaignDemo: inject -> retry -> remap -> retire -> scrub, audited.
func campaignDemo() {
	fmt.Println("== Part 2: a fault-injection campaign against the cache ==")
	cfg := core.DefaultConfig(8 << 20) // 8MB = 32 MLC blocks
	cfg.Seed = 42
	cfg.ScrubEvery = 256       // patrol the page population in the background
	cfg.WearAcceleration = 500 // age the cells so the scrubber has work
	cfg.Faults = &fault.Plan{
		Seed:            1234,
		ReadFlipRate:    5e-3, // transient flips: read-retry territory
		ReadFlipMax:     3,
		ProgramFailRate: 5e-4, // burned slots: remap territory
		EraseFailRate:   2e-3, // stuck blocks: retirement territory
		GrownBadRate:    0.1,  // some failures are permanent
	}
	c := core.New(cfg)

	fmt.Printf("running 120k operations at read=%g program=%g erase=%g grown=%g ...\n",
		cfg.Faults.ReadFlipRate, cfg.Faults.ProgramFailRate,
		cfg.Faults.EraseFailRate, cfg.Faults.GrownBadRate)
	rng := sim.NewRNG(99)
	served, lost := 0, 0
	for i := 0; i < 120000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(3000))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if c.Read(lba).Hit {
			served++
		} else {
			c.Insert(lba)
		}
	}
	st := c.Stats()
	fs := c.FaultStats()
	lost = int(st.Uncorrectable)

	fmt.Println()
	fmt.Println("what the campaign threw at the device:")
	fmt.Printf("  %6d transient bit flips across %d reads\n", fs.ReadFlips, fs.ReadInjections)
	fmt.Printf("  %6d program failures, %d erase failures\n", fs.ProgramFails, fs.EraseFails)
	fmt.Printf("  %6d failures escalated to permanently bad blocks\n", fs.GrownBad)
	fmt.Println("how the controller answered:")
	fmt.Printf("  %6d read retries, %d recovered the data (%d pages lost, re-fetched from disk)\n",
		st.ReadRetries, st.RetryRecoveries, lost)
	fmt.Printf("  %6d program failures remapped to healthy pages\n", st.Remaps)
	fmt.Printf("  %6d erase failures absorbed, %d blocks retired\n",
		st.EraseFailures, st.RetiredBlocks)
	fmt.Printf("  %6d pages scrub-scanned, %d migrated off worn cells\n",
		st.ScrubScans, st.ScrubMigrations)
	fmt.Printf("cache after the storm: %d hits served, %d pages cached, dead=%v\n",
		served, c.ValidPages(), c.Dead())

	fmt.Println()
	if err := c.CheckIntegrity(); err != nil {
		fmt.Println("integrity audit: FAILED:", err)
		return
	}
	fmt.Printf("integrity audit: OK — all %d cached pages verified against their disk addresses,\n", c.ValidPages())
	fmt.Println("no mapping points at a retired block, every table agrees. Faults cost")
	fmt.Println("performance and capacity, never correctness.")
}
