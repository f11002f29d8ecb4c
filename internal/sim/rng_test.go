package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestZipfRankOrder(t *testing.T) {
	r := NewRNG(21)
	z, err := NewZipf(r, 1000, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 10 must dominate rank 100.
	if !(counts[0] > counts[10] && counts[10] > counts[100]) {
		t.Fatalf("zipf counts not rank-ordered: c0=%d c10=%d c100=%d",
			counts[0], counts[10], counts[100])
	}
	// Check the head probability against the analytic value.
	sum := 0.0
	for k := 1; k <= 1000; k++ {
		sum += math.Pow(float64(k), -1.2)
	}
	want := 1 / sum
	got := float64(counts[0]) / n
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("zipf head probability = %v, want ~%v", got, want)
	}
}

func TestZipfRange(t *testing.T) {
	r := NewRNG(22)
	z, err := NewZipf(r, 17, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() != 17 {
		t.Fatalf("N() = %d, want 17", z.N())
	}
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v < 0 || v >= 17 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestExponentialSampler(t *testing.T) {
	r := NewRNG(23)
	e, err := NewExponential(r, 10000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[e.Next()]++
	}
	// P(0) should be roughly 1-e^-0.1 ~ 0.0952 of mass.
	got := float64(counts[0]) / n
	want := 1 - math.Exp(-0.1)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("exponential head probability = %v, want ~%v", got, want)
	}
	if !(counts[0] > counts[10] && counts[10] > counts[30]) {
		t.Fatalf("exponential counts not rank-ordered: %d %d %d",
			counts[0], counts[10], counts[30])
	}
}

func TestSamplerConstructorsReject(t *testing.T) {
	r := NewRNG(1)
	for _, tc := range []struct {
		name string
		fn   func() error
	}{
		{"zipf zero n", func() error { _, err := NewZipf(r, 0, 1); return err }},
		{"zipf zero alpha", func() error { _, err := NewZipf(r, 10, 0); return err }},
		{"zipf nan alpha", func() error { _, err := NewZipf(r, 10, math.NaN()); return err }},
		{"zipf nil rng", func() error { _, err := NewZipf(nil, 10, 1); return err }},
		{"exp zero n", func() error { _, err := NewExponential(r, 0, 1); return err }},
		{"exp zero lambda", func() error { _, err := NewExponential(r, 10, 0); return err }},
		{"exp nil rng", func() error { _, err := NewExponential(nil, 10, 1); return err }},
	} {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: invalid sampler construction returned no error", tc.name)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint32) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 32; i++ {
			if r.Uint64n(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
