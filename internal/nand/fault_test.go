package nand

import (
	"errors"
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/wear"
)

func faultyDevice(p fault.Plan, blocks int) *Device {
	return New(Config{
		Blocks:           blocks,
		InitialMode:      wear.SLC,
		Seed:             1,
		Faults:           fault.NewInjector(p),
		FactoryBadBlocks: p.FactoryBadBlocks,
	})
}

func TestFactoryBadBlocksRetiredFromBirth(t *testing.T) {
	d := faultyDevice(fault.Plan{FactoryBadBlocks: []int{1, 3}}, 4)
	for _, b := range []int{1, 3} {
		if !d.Retired(b) || !d.FactoryBad(b) {
			t.Fatalf("block %d not factory bad", b)
		}
		if _, err := d.Program(PageAddr(b, 0, 0), 7); !errors.Is(err, ErrRetired) {
			t.Fatalf("program on factory-bad block: %v", err)
		}
		if _, err := d.Erase(b); !errors.Is(err, ErrRetired) {
			t.Fatalf("erase on factory-bad block: %v", err)
		}
	}
	for _, b := range []int{0, 2} {
		if d.Retired(b) || d.FactoryBad(b) {
			t.Fatalf("healthy block %d marked bad", b)
		}
	}
}

func TestProgramFailureIsTypedAndBurnsSlot(t *testing.T) {
	d := faultyDevice(fault.Plan{Seed: 5, ProgramFailRate: 1}, 2)
	a := PageAddr(0, 0, 0)
	lat, err := d.Program(a, 42)
	if !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("got %v, want ErrProgramFailed", err)
	}
	if lat == 0 {
		t.Fatal("failed program charged no latency (status returns after tPROG)")
	}
	// The slot is burned: unusable until erase, but holds no valid data.
	if !d.Programmed(a) {
		t.Fatal("burned slot reads as free")
	}
	if _, err := d.Program(a, 42); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogramming burned slot: %v", err)
	}
}

func TestEraseFailureKeepsContents(t *testing.T) {
	d := faultyDevice(fault.Plan{Seed: 7, EraseFailRate: 1}, 2)
	a := PageAddr(0, 0, 0)
	if _, err := d.Program(a, 99); err != nil {
		t.Fatal(err)
	}
	before := d.EraseCount(0)
	if _, err := d.Erase(0); !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("got %v, want ErrEraseFailed", err)
	}
	if d.EraseCount(0) != before {
		t.Fatal("failed erase accrued a wear cycle")
	}
	res, err := d.Read(a)
	if err != nil || res.Data != 99 {
		t.Fatalf("failed erase lost the block contents: %v %v", res.Data, err)
	}
}

func TestGrownBadBlockFailsForever(t *testing.T) {
	d := faultyDevice(fault.Plan{Seed: 11, ProgramFailRate: 1, GrownBadRate: 1}, 2)
	if _, err := d.Program(PageAddr(0, 0, 0), 1); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("first program: %v", err)
	}
	if !d.GrownBad(0) {
		t.Fatal("block did not grow bad at GrownBadRate=1")
	}
	// Every later program and erase fails organically, without
	// consuming injector randomness.
	ops := d.FaultInjector().Stats()
	if _, err := d.Program(PageAddr(0, 1, 0), 1); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("program on grown-bad block: %v", err)
	}
	if _, err := d.Erase(0); !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("erase on grown-bad block: %v", err)
	}
	if d.FaultInjector().Stats() != ops {
		t.Fatal("grown-bad failures consumed injector randomness")
	}
}

func TestInjectedFlipsAreTransient(t *testing.T) {
	d := faultyDevice(fault.Plan{Seed: 13, ReadFlipRate: 0.5, ReadFlipMax: 4}, 2)
	a := PageAddr(0, 0, 0)
	if _, err := d.Program(a, 5); err != nil {
		t.Fatal(err)
	}
	sawInjected, sawClean := false, false
	for i := 0; i < 200; i++ {
		res, err := d.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Injected > 0 {
			sawInjected = true
			if res.BitErrors < res.Injected {
				t.Fatalf("BitErrors %d < Injected %d", res.BitErrors, res.Injected)
			}
			if res.Injected > 4 {
				t.Fatalf("injected %d flips, ReadFlipMax is 4", res.Injected)
			}
		} else {
			sawClean = true
		}
		if res.Data != 5 {
			t.Fatal("injected flips corrupted the stored token")
		}
	}
	if !sawInjected || !sawClean {
		t.Fatalf("flips not transient at rate 0.5: injected=%v clean=%v", sawInjected, sawClean)
	}
	if tok, ok := d.Peek(a); !ok || tok != 5 {
		t.Fatalf("Peek = %d, %v", tok, ok)
	}
}
