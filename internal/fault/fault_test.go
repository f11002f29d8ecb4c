package fault

import "testing"

// drive consults the injector with a fixed operation mix and returns
// the full fault trace, one entry per operation.
func drive(in *Injector, ops int) []int {
	out := make([]int, 0, 3*ops)
	for i := 0; i < ops; i++ {
		out = append(out, in.ReadFlips())
		pf, pg := in.ProgramFails()
		out = append(out, b2i(pf)+2*b2i(pg))
		ef, eg := in.EraseFails()
		out = append(out, b2i(ef)+2*b2i(eg))
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDeterminism(t *testing.T) {
	p := Plan{
		Seed:            41,
		ReadFlipRate:    0.05,
		ProgramFailRate: 0.02,
		EraseFailRate:   0.02,
		GrownBadRate:    0.3,
	}
	a := drive(NewInjector(p), 5000)
	b := drive(NewInjector(p), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
	ia, ib := NewInjector(p), NewInjector(p)
	drive(ia, 5000)
	drive(ib, 5000)
	if ia.Stats() != ib.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", ia.Stats(), ib.Stats())
	}
	if ia.Stats() == (Stats{}) {
		t.Fatal("campaign injected nothing")
	}
}

// TestRateIndependence is the property the fixed two-draws-per-decision
// discipline buys: zeroing one fault kind must not move where the
// others land, so sweep points stay comparable.
func TestRateIndependence(t *testing.T) {
	full := Plan{
		Seed:            43,
		ReadFlipRate:    0.05,
		ProgramFailRate: 0.02,
		EraseFailRate:   0.02,
		GrownBadRate:    0.3,
	}
	noReads := full
	noReads.ReadFlipRate = 0
	a := drive(NewInjector(full), 5000)
	b := drive(NewInjector(noReads), 5000)
	for i := range a {
		if i%3 == 0 {
			continue // the read-flip decisions themselves differ, of course
		}
		if a[i] != b[i] {
			t.Fatalf("op %d (non-read) moved when the read rate changed: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRatesRoughlyHonoured(t *testing.T) {
	in := NewInjector(Plan{Seed: 47, ReadFlipRate: 0.1})
	n := 20000
	for i := 0; i < n; i++ {
		in.ReadFlips()
	}
	got := float64(in.Stats().ReadInjections) / float64(n)
	if got < 0.08 || got > 0.12 {
		t.Fatalf("injection rate %.4f, want ~0.10", got)
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(Plan{Seed: 53})
	for i := 0; i < 1000; i++ {
		if in.ReadFlips() != 0 {
			t.Fatal("zero plan injected read flips")
		}
		if f, _ := in.ProgramFails(); f {
			t.Fatal("zero plan failed a program")
		}
		if f, _ := in.EraseFails(); f {
			t.Fatal("zero plan failed an erase")
		}
	}
	var p *Plan
	if p.Active() {
		t.Fatal("nil plan reports active")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.ReadFlips() != 0 {
		t.Fatal("nil injector flipped bits")
	}
	if f, g := in.ProgramFails(); f || g {
		t.Fatal("nil injector failed a program")
	}
	if f, g := in.EraseFails(); f || g {
		t.Fatal("nil injector failed an erase")
	}
	if in.Stats() != (Stats{}) {
		t.Fatal("nil injector has stats")
	}
}

func TestBurstWindows(t *testing.T) {
	// Rate so low that injections essentially only land in burst
	// windows (factor 1000 saturates the rate to 1 inside them).
	in := NewInjector(Plan{
		Seed:         61,
		ReadFlipRate: 1e-4,
		BurstEvery:   100,
		BurstLen:     5,
		BurstFactor:  1000,
	})
	inBurst, outBurst := 0, 0
	for op := 0; op < 10000; op++ {
		n := in.ReadFlips()
		if n == 0 {
			continue
		}
		if uint64(op)%100 < 5 {
			inBurst++
		} else {
			outBurst++
		}
	}
	if inBurst == 0 {
		t.Fatal("no injections inside burst windows")
	}
	if outBurst > inBurst/10 {
		t.Fatalf("burst shape lost: %d inside vs %d outside", inBurst, outBurst)
	}
}

func TestGrownBadEscalation(t *testing.T) {
	in := NewInjector(Plan{Seed: 67, ProgramFailRate: 0.5, GrownBadRate: 1})
	sawGrown := false
	for i := 0; i < 100; i++ {
		if fail, grown := in.ProgramFails(); fail {
			if !grown {
				t.Fatal("GrownBadRate=1 produced a transient failure")
			}
			sawGrown = true
		}
	}
	if !sawGrown {
		t.Fatal("no failures at rate 0.5")
	}
	st := in.Stats()
	if st.GrownBad != st.ProgramFails {
		t.Fatalf("grown %d != failures %d at GrownBadRate=1", st.GrownBad, st.ProgramFails)
	}
}
