package wear

import (
	"testing"

	"flashdc/internal/sim"
)

// specDwellFor returns the dwell that, at the given acceleration,
// reaches exactly the retention specification point.
func specDwellFor(accel float64) sim.Duration {
	return sim.Duration(float64(retentionSpecDwell) / accel)
}

func TestRetentionZeroValueDisabled(t *testing.T) {
	var p RetentionParams
	if p.Enabled() {
		t.Fatal("zero RetentionParams reports enabled")
	}
	if got := p.Bits(sim.Duration(1<<60), 1e9, MLC); got != 0 {
		t.Fatalf("disabled retention produced %d bits", got)
	}
	neg := RetentionParams{Accel: -1}
	if neg.Enabled() || neg.Bits(sim.Second, 0, SLC) != 0 {
		t.Fatal("negative Accel did not disable retention")
	}
}

func TestRetentionZeroDwellIsClean(t *testing.T) {
	p := RetentionParams{Accel: 1e6}
	if got := p.Bits(0, 1e6, MLC); got != 0 {
		t.Fatalf("just-programmed page shows %d retention bits", got)
	}
	if got := p.Bits(-sim.Second, 0, MLC); got != 0 {
		t.Fatalf("negative dwell shows %d retention bits", got)
	}
}

func TestRetentionSpecPoint(t *testing.T) {
	// A fresh page at exactly the accelerated spec dwell shows the
	// retentionBitsAtSpec (the ITRS "still recoverable" point).
	p := RetentionParams{Accel: 1000}
	got := p.Bits(specDwellFor(1000), 0, MLC)
	if got != retentionBitsAtSpec {
		t.Fatalf("spec-dwell fresh page shows %d bits, want %d", got, retentionBitsAtSpec)
	}
}

func TestRetentionMonotoneInDwellAndCycles(t *testing.T) {
	p := RetentionParams{Accel: 1e5}
	prev := -1
	for d := sim.Duration(0); d <= 100*sim.Second; d += sim.Second {
		got := p.Bits(d, 0, MLC)
		if got < prev {
			t.Fatalf("retention bits dropped from %d to %d as dwell grew to %v", prev, got, d)
		}
		prev = got
	}
	prevC := -1
	for cycles := 0.0; cycles <= 4*EnduranceMLC; cycles += EnduranceMLC / 8 {
		got := p.Bits(10*sim.Second, cycles, MLC)
		if got < prevC {
			t.Fatalf("retention bits dropped from %d to %d as cycles grew to %g", prevC, got, cycles)
		}
		prevC = got
	}
	// The wear coupling actually increases the count somewhere.
	if p.Bits(specDwellFor(1e5), 4*EnduranceMLC, MLC) <= p.Bits(specDwellFor(1e5), 0, MLC) {
		t.Fatal("cycle coupling never increased the retention count")
	}
}

func TestRetentionCapsAtCellsPerPage(t *testing.T) {
	p := RetentionParams{Accel: 1e12}
	if got := p.Bits(sim.Duration(1<<62), 1e12, MLC); got != CellsPerPage {
		t.Fatalf("extreme retention shows %d bits, want the %d cap", got, CellsPerPage)
	}
}

func TestDisturbZeroValueDisabled(t *testing.T) {
	var p DisturbParams
	if p.Enabled() {
		t.Fatal("zero DisturbParams reports enabled")
	}
	if got := p.Bits(1<<40, 1e9, MLC); got != 0 {
		t.Fatalf("disabled disturb produced %d bits", got)
	}
	neg := DisturbParams{ReadsPerBit: -5}
	if neg.Enabled() || neg.Bits(1000, 0, SLC) != 0 {
		t.Fatal("negative ReadsPerBit did not disable disturb")
	}
}

func TestDisturbZeroReadsIsClean(t *testing.T) {
	p := DisturbParams{ReadsPerBit: 100}
	if got := p.Bits(0, 1e6, MLC); got != 0 {
		t.Fatalf("freshly erased block shows %d disturb bits", got)
	}
}

func TestDisturbLinearAndMonotone(t *testing.T) {
	p := DisturbParams{ReadsPerBit: 100}
	// SLC fresh: exactly reads/ReadsPerBit.
	if got := p.Bits(1000, 0, SLC); got != 10 {
		t.Fatalf("1000 SLC reads at 100/bit show %d bits, want 10", got)
	}
	// MLC disturbs twice as fast.
	if got := p.Bits(1000, 0, MLC); got != 20 {
		t.Fatalf("1000 MLC reads at 100/bit show %d bits, want 20", got)
	}
	prev := -1
	for r := int64(0); r <= 100000; r += 1000 {
		got := p.Bits(r, 0, MLC)
		if got < prev {
			t.Fatalf("disturb bits dropped from %d to %d at %d reads", prev, got, r)
		}
		prev = got
	}
	// Cycle coupling is monotone too.
	if p.Bits(1000, 2*EnduranceMLC, MLC) < p.Bits(1000, 0, MLC) {
		t.Fatal("worn block disturbs slower than a fresh one")
	}
}

func TestDisturbCapsAtCellsPerPage(t *testing.T) {
	p := DisturbParams{ReadsPerBit: 1e-6}
	if got := p.Bits(1<<50, 1e9, MLC); got != CellsPerPage {
		t.Fatalf("extreme disturb shows %d bits, want the %d cap", got, CellsPerPage)
	}
}
