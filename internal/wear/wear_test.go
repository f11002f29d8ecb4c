package wear

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"flashdc/internal/sim"
)

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormCDF(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormInvRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		p := (float64(raw) + 1) / (float64(math.MaxUint32) + 2)
		z := NormInv(p)
		return math.Abs(NormCDF(z)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Extreme tails used by the model.
	for _, p := range []float64{1e-8, 1e-6, 1e-4, 0.5, 1 - 1e-6} {
		if got := NormCDF(NormInv(p)); math.Abs(got-p)/p > 1e-6 {
			t.Errorf("round trip at p=%v: %v", p, got)
		}
	}
}

func TestNormInvDomainPanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormInv(%v) did not panic", p)
				}
			}()
			NormInv(p)
		}()
	}
}

func TestModeString(t *testing.T) {
	if SLC.String() != "SLC" || MLC.String() != "MLC" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode formatting wrong")
	}
}

func TestCalibrationAnchors(t *testing.T) {
	m := NewModel()
	// Anchor 1: with no correction the page dies at the 1e5-cycle
	// specification point (paper: "first point of failure to occur at
	// 100,000 W/E cycles").
	got := m.MaxTolerableCycles(0, 0, SLC)
	if math.Abs(got-EnduranceSLC)/EnduranceSLC > 0.01 {
		t.Fatalf("C(0) = %v, want ~1e5", got)
	}
	// Anchor 2: strength 10 with no spatial variation reaches the
	// multi-million-cycle regime of Figure 6(b).
	got10 := m.MaxTolerableCycles(10, 0, SLC)
	if got10 < 6e6 || got10 > 8e6 {
		t.Fatalf("C(10) = %v, want ~7e6", got10)
	}
}

func TestTolerableCyclesMonotoneInStrength(t *testing.T) {
	m := NewModel()
	for _, sigma := range []float64{0, 0.05, 0.10, 0.20} {
		prev := 0.0
		for tc := 0; tc <= 12; tc++ {
			c := m.MaxTolerableCycles(tc, sigma, SLC)
			if c <= prev {
				t.Fatalf("sigma=%v: C(%d)=%v not increasing", sigma, tc, c)
			}
			prev = c
		}
	}
}

func TestSpatialVariationHurts(t *testing.T) {
	// Figure 6(b): larger page-to-page spread lowers tolerable cycles
	// at every ECC strength above zero.
	m := NewModel()
	for tc := 1; tc <= 10; tc++ {
		prev := math.Inf(1)
		for _, sigma := range []float64{0, 0.05, 0.10, 0.20} {
			c := m.MaxTolerableCycles(tc, sigma, SLC)
			if c > prev {
				t.Fatalf("t=%d: C(sigma=%v)=%v exceeds smaller sigma", tc, sigma, c)
			}
			prev = c
		}
	}
}

func TestDiminishingReturns(t *testing.T) {
	// Gains per extra correctable bit shrink (in decades).
	m := NewModel()
	gain := func(tc int) float64 {
		return math.Log10(m.MaxTolerableCycles(tc+1, 0, SLC)) -
			math.Log10(m.MaxTolerableCycles(tc, 0, SLC))
	}
	for tc := 0; tc < 10; tc++ {
		if gain(tc+1) >= gain(tc) {
			t.Fatalf("gain not diminishing at t=%d: %v then %v", tc, gain(tc), gain(tc+1))
		}
	}
}

func TestMLCEnduranceRatio(t *testing.T) {
	// Table 1: MLC tolerates 10x fewer cycles than SLC.
	m := NewModel()
	for tc := 0; tc <= 8; tc += 4 {
		slc := m.MaxTolerableCycles(tc, 0, SLC)
		mlc := m.MaxTolerableCycles(tc, 0, MLC)
		if math.Abs(slc/mlc-10) > 0.01 {
			t.Fatalf("t=%d: SLC/MLC endurance ratio %v, want 10", tc, slc/mlc)
		}
	}
}

func TestCellFailProbMonotone(t *testing.T) {
	m := NewModel()
	prev := -1.0
	for _, c := range []float64{0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e9} {
		p := m.CellFailProb(c, SLC)
		if p < prev {
			t.Fatalf("CellFailProb not monotone at %v", c)
		}
		if p < 0 || p > 1 {
			t.Fatalf("CellFailProb out of range at %v: %v", c, p)
		}
		prev = p
	}
	if m.CellFailProb(0, SLC) != 0 {
		t.Fatal("zero cycles should have zero failure probability")
	}
}

func TestExpectedFailedBitsAtSpec(t *testing.T) {
	m := NewModel()
	// At the specification point roughly one cell per page has failed.
	got := float64(CellsPerPage) * m.CellFailProb(EnduranceSLC, SLC)
	if got < 0.5 || got > 2 {
		t.Fatalf("expected failed bits at 1e5 cycles = %v, want ~1", got)
	}
}

func TestPageWearTrajectory(t *testing.T) {
	m := NewModel()
	rng := sim.NewRNG(1)
	w := m.SamplePageWear(rng, 0)
	if w.FailedBits(m, 1000, SLC) != 0 {
		t.Fatal("fresh page already has failed bits")
	}
	prev := 0
	for _, c := range []float64{1e4, 1e5, 3e5, 1e6, 5e6, 2e7} {
		n := w.FailedBits(m, c, SLC)
		if n < prev {
			t.Fatalf("FailedBits not monotone at %v cycles", c)
		}
		prev = n
	}
	if prev == 0 {
		t.Fatal("page never wears out")
	}
}

func TestPageWearInverse(t *testing.T) {
	m := NewModel()
	w := m.SamplePageWear(sim.NewRNG(2), 0.05)
	for _, bits := range []int{0, 1, 4, 12} {
		c := w.CyclesUntilBits(m, bits, SLC)
		if got := w.FailedBits(m, c*1.01, SLC); got <= bits {
			t.Fatalf("just past CyclesUntilBits(%d)=%v, FailedBits=%d", bits, c, got)
		}
		if got := w.FailedBits(m, c*0.99, SLC); got > bits {
			t.Fatalf("just before CyclesUntilBits(%d), FailedBits=%d", bits, got)
		}
	}
}

func TestPageWearMLCWearsFaster(t *testing.T) {
	m := NewModel()
	w := m.SamplePageWear(sim.NewRNG(3), 0)
	cSLC := w.CyclesUntilBits(m, 1, SLC)
	cMLC := w.CyclesUntilBits(m, 1, MLC)
	if math.Abs(cSLC/cMLC-10) > 0.01 {
		t.Fatalf("SLC/MLC page wear ratio %v, want 10", cSLC/cMLC)
	}
}

func TestPageWearSpreadAcrossPages(t *testing.T) {
	m := NewModel()
	rng := sim.NewRNG(4)
	var lives []float64
	for i := 0; i < 200; i++ {
		w := m.SamplePageWear(rng, 0.10)
		lives = append(lives, w.CyclesUntilBits(m, 0, SLC))
	}
	min, max := lives[0], lives[0]
	for _, v := range lives {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max/min < 2 {
		t.Fatalf("page lifetime spread too small: min=%v max=%v", min, max)
	}
	// Zero spatial sigma must produce identical pages.
	w1 := m.SamplePageWear(rng, 0)
	w2 := m.SamplePageWear(rng, 0)
	if w1.CyclesUntilBits(m, 0, SLC) != w2.CyclesUntilBits(m, 0, SLC) {
		t.Fatal("sigma=0 pages differ")
	}
}

func TestCyclesUntilBitsPanicsOnNegative(t *testing.T) {
	m := NewModel()
	w := m.SamplePageWear(sim.NewRNG(5), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative bit budget did not panic")
		}
	}()
	w.CyclesUntilBits(m, -1, SLC)
}

func TestMaxTolerableCyclesPanicsOnNegativeStrength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative strength did not panic")
		}
	}()
	NewModel().MaxTolerableCycles(-1, 0, SLC)
}

// TestStochasticMatchesAnalytic checks model self-consistency: the
// stochastic per-page trajectories (what the simulator uses) must
// respect the ordering and rough magnitudes of the analytic
// MaxTolerableCycles curve (what Figure 6(b) plots).
func TestStochasticMatchesAnalytic(t *testing.T) {
	m := NewModel()
	rng := sim.NewRNG(97)
	const pages = 2000
	sigma := 0.10
	// Median page's cycles-to-t-bits should track the sigma=0 analytic
	// curve (offsets are zero-mean), and the weak tail must sit below
	// the worst-page analytic value's neighbourhood.
	for _, tc := range []int{1, 4, 8} {
		var lives []float64
		for i := 0; i < pages; i++ {
			w := m.SamplePageWear(rng, sigma)
			lives = append(lives, w.CyclesUntilBits(m, tc, SLC))
		}
		sort.Float64s(lives)
		median := lives[pages/2]
		analytic0 := m.MaxTolerableCycles(tc, 0, SLC)
		if ratio := median / analytic0; ratio < 0.5 || ratio > 2 {
			t.Fatalf("t=%d: median stochastic life %v vs analytic %v (ratio %.2f)",
				tc, median, analytic0, ratio)
		}
		worst := lives[0]
		analyticSpread := m.MaxTolerableCycles(tc, sigma, SLC)
		if worst > analytic0 {
			t.Fatalf("t=%d: weakest page outlives the zero-spread analytic curve", tc)
		}
		// The spread-penalised analytic point lies between the weakest
		// page and the median.
		if analyticSpread < worst/3 || analyticSpread > median {
			t.Fatalf("t=%d: analytic spread point %v outside [%v, %v]",
				tc, analyticSpread, worst, median)
		}
	}
}
