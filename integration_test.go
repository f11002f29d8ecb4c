package flashdc

// End-to-end integrity: real 2KB payloads stored on the simulated NAND
// device, corrupted by wear-driven bit flips, and recovered by the
// *actual* BCH+CRC codec — the full section 4 pipeline on real data,
// not latency bookkeeping. This is the test that ties internal/nand,
// internal/wear, internal/ecc and internal/bch together.

import (
	"bytes"
	"errors"
	"testing"

	"flashdc/internal/ecc"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// storePage encodes data at the given strength and programs it with
// its spare image.
func storePage(t *testing.T, dev *nand.Device, codec *ecc.Codec, a nand.Addr,
	s ecc.Strength, data []byte) {
	t.Helper()
	spare := codec.Encode(s, data)
	if _, err := dev.ProgramPage(a, 0, data, spare); err != nil {
		t.Fatal(err)
	}
}

// loadPage reads a page back and runs the real decoder at the given
// strength.
func loadPage(dev *nand.Device, codec *ecc.Codec, a nand.Addr,
	s ecc.Strength) ([]byte, int, error) {
	buf, _, err := dev.ReadPage(a)
	if err != nil {
		return nil, 0, err
	}
	corrected, err := codec.Decode(s, buf.Data, buf.Spare)
	return buf.Data, corrected, err
}

func TestEndToEndIntegrityFreshDevice(t *testing.T) {
	dev := nand.New(nand.Config{Blocks: 2, InitialMode: wear.SLC, Seed: 1})
	codec := ecc.NewCodec()
	rng := sim.NewRNG(2)
	for slot := 0; slot < 8; slot++ {
		data := make([]byte, ecc.PageSize)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		a := nand.PageAddr(0, slot, 0)
		storePage(t, dev, codec, a, 4, data)
		got, corrected, err := loadPage(dev, codec, a, 4)
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
	dev := nand.New(nand.Config{
		Blocks: 2, InitialMode: wear.MLC, Seed: 3, WearAcceleration: 3000,
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
	storePage(t, dev, codec, a, strength, data)
	got, corrected, err := loadPage(dev, codec, a, strength)
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
	dev := nand.New(nand.Config{
		Blocks: 2, InitialMode: wear.MLC, Seed: 5, WearAcceleration: 3000,
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
	storePage(t, dev, codec, a, weak, data)
	_, _, err := loadPage(dev, codec, a, weak)
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
	dev := nand.New(nand.Config{
		Blocks: 2, InitialMode: wear.MLC, Seed: 7, WearAcceleration: 3000,
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
	storePage(t, dev, codec, a, strength, data)
	got, _, err := loadPage(dev, codec, a, strength)
	if err != nil {
		t.Fatalf("SLC-mode decode failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("SLC-mode page not restored")
	}
}
