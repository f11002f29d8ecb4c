package flashdc

// End-to-end integrity: real 2KB pages protected by the *actual*
// BCH+CRC codec, corrupted by exactly the bit errors the simulated
// NAND device reports for a worn page, and recovered by the decoder —
// the full section 4 pipeline on real data, not latency bookkeeping.
// This is the test that ties internal/nand, internal/wear,
// internal/ecc and internal/bch together.

import (
	"bytes"
	"errors"
	"testing"

	"flashdc/internal/ecc"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// storePage programs a token at a and returns data's spare image at
// the given strength. The device holds the token; the test keeps the
// bytes.
func storePage(t *testing.T, dev *nand.Device, codec *ecc.Codec, a nand.Addr,
	s ecc.Strength, data []byte) []byte {
	t.Helper()
	if _, err := dev.Program(a, 0); err != nil {
		t.Fatal(err)
	}
	return codec.Encode(s, data)
}

// loadPage reads page a, flips as many bits of a copy of data and
// spare as the device reports, and runs the real decoder at the given
// strength. The flips are seeded from the device seed, the address
// and the erase count, so a worn page fails the same way on every
// read.
func loadPage(dev *nand.Device, seed uint64, codec *ecc.Codec, a nand.Addr,
	s ecc.Strength, data, spare []byte) ([]byte, int, error) {
	res, err := dev.Read(a)
	if err != nil {
		return nil, 0, err
	}
	data, spare = bytes.Clone(data), bytes.Clone(spare)
	rng := sim.NewRNG(seed ^ uint64(a.Block())<<40 ^ uint64(a.Slot())<<24 ^ uint64(a.Sub())<<16 ^
		uint64(dev.EraseCount(a.Block())))
	ecc.FlipBits(rng, res.BitErrors, data, spare)
	corrected, err := codec.Decode(s, data, spare)
	return data, corrected, err
}

func TestEndToEndIntegrityFreshDevice(t *testing.T) {
	const seed = 1
	dev := nand.New(nand.Config{Blocks: 2, InitialMode: wear.SLC, Seed: seed})
	codec := ecc.NewCodec()
	rng := sim.NewRNG(2)
	for slot := 0; slot < 8; slot++ {
		data := make([]byte, ecc.PageSize)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		a := nand.PageAddr(0, slot, 0)
		spare := storePage(t, dev, codec, a, 4, data)
		got, corrected, err := loadPage(dev, seed, codec, a, 4, data, spare)
		if err != nil || corrected != 0 {
			t.Fatalf("fresh page slot %d: corrected=%d err=%v", slot, corrected, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("slot %d data mismatch", slot)
		}
	}
}

// ageDevice erases block 0 until its first page reports the target
// bit-error count, returning that count (which may overshoot).
func ageDevice(t *testing.T, dev *nand.Device, target int, budget int) int {
	t.Helper()
	for i := 0; i < budget; i++ {
		if _, err := dev.Erase(0); err != nil {
			t.Fatal(err)
		}
		if e := dev.BitErrors(nand.PageAddr(0, 0, 0)); e >= target {
			return e
		}
	}
	return dev.BitErrors(nand.PageAddr(0, 0, 0))
}

func TestEndToEndIntegrityWornDevice(t *testing.T) {
	const seed = 3
	dev := nand.New(nand.Config{
		Blocks: 2, InitialMode: wear.MLC, Seed: seed, WearAcceleration: 3000,
	})
	codec := ecc.NewCodec()
	errs := ageDevice(t, dev, 3, 500)
	if errs < 1 || errs > 10 {
		t.Skipf("aged to %d bit errors; outside the useful window", errs)
	}
	rng := sim.NewRNG(4)
	data := make([]byte, ecc.PageSize)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	a := nand.PageAddr(0, 0, 0)

	// Strength covering the wear: the real decoder must restore the
	// exact bytes despite the device flipping errs cells.
	strength := ecc.Strength(errs + 2)
	spare := storePage(t, dev, codec, a, strength, data)
	got, corrected, err := loadPage(dev, seed, codec, a, strength, data, spare)
	if err != nil {
		t.Fatalf("decode on worn device: %v", err)
	}
	if corrected == 0 {
		t.Fatal("no corrections despite worn cells")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("worn page not restored bit-exact")
	}
}

func TestEndToEndUnderProvisionedStrengthFails(t *testing.T) {
	const seed = 5
	dev := nand.New(nand.Config{
		Blocks: 2, InitialMode: wear.MLC, Seed: seed, WearAcceleration: 3000,
	})
	codec := ecc.NewCodec()
	errs := ageDevice(t, dev, 4, 600)
	if errs < 3 || errs > 12 {
		t.Skipf("aged to %d bit errors; outside the useful window", errs)
	}
	rng := sim.NewRNG(6)
	data := make([]byte, ecc.PageSize)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	a := nand.PageAddr(0, 0, 0)
	// Deliberately under-provisioned ECC: t = errs - 2.
	weak := ecc.Strength(errs - 2)
	if weak < 1 {
		weak = 1
	}
	spare := storePage(t, dev, codec, a, weak, data)
	_, _, err := loadPage(dev, seed, codec, a, weak, data, spare)
	if err == nil {
		t.Fatalf("decode at t=%d succeeded despite %d worn cells", weak, errs)
	}
	if !errors.Is(err, ecc.ErrUncorrectable) && !errors.Is(err, ecc.ErrSilentCorruption) {
		t.Fatalf("unexpected failure mode: %v", err)
	}
	// This is precisely the moment the programmable controller would
	// stage a stronger code or a density reduction (section 5.2.1).
}

func TestEndToEndDensityReductionRecoversPage(t *testing.T) {
	// The section 5.2.1 density response, on real bytes: a block worn
	// beyond its MLC correction budget becomes reliable again when the
	// slot switches to SLC mode (10x endurance margin).
	const seed = 7
	dev := nand.New(nand.Config{
		Blocks: 2, InitialMode: wear.MLC, Seed: seed, WearAcceleration: 3000,
	})
	codec := ecc.NewCodec()
	errs := ageDevice(t, dev, 5, 800)
	if errs < 3 {
		t.Skipf("aged to only %d bit errors", errs)
	}
	rng := sim.NewRNG(8)
	data := make([]byte, ecc.PageSize)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	const strength = 2
	mlcErrs := dev.BitErrors(nand.PageAddr(0, 0, 0))
	if mlcErrs <= strength {
		t.Skipf("MLC errors %d already within t=%d", mlcErrs, strength)
	}
	// Switch the slot to SLC (legal: block just erased) and verify
	// the same wear now fits the weak code.
	if err := dev.SetMode(0, 0, wear.SLC); err != nil {
		t.Fatal(err)
	}
	slcErrs := dev.BitErrors(nand.PageAddr(0, 0, 0))
	if slcErrs >= mlcErrs {
		t.Fatalf("SLC mode did not reduce bit errors: %d -> %d", mlcErrs, slcErrs)
	}
	if slcErrs > strength {
		t.Skipf("even SLC mode has %d errors; wear too advanced for t=%d", slcErrs, strength)
	}
	a := nand.PageAddr(0, 0, 0)
	spare := storePage(t, dev, codec, a, strength, data)
	got, _, err := loadPage(dev, seed, codec, a, strength, data, spare)
	if err != nil {
		t.Fatalf("SLC-mode decode failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("SLC-mode page not restored")
	}
}
