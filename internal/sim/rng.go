package sim

import (
	"fmt"
	"math"
)

// RNG is a deterministic pseudo-random generator (xoshiro256**) seeded
// via splitmix64. It is not safe for concurrent use; give each model its
// own instance.
type RNG struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded from the given seed. Distinct seeds
// give statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// SplitMix64 is the splitmix64 step function: a bijective avalanche
// mix whose outputs for consecutive inputs form the splitmix64 random
// sequence. Besides seeding the RNG state it is the canonical way to
// derive independent sub-seeds (per-shard simulation seeds) and
// uniform hashes (LBA-space partitioning) from small or correlated
// integers.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed re-initialises the generator state from seed using splitmix64,
// which guarantees a non-zero state for any input.
func (r *RNG) Seed(seed uint64) {
	for i := range r.s {
		r.s[i] = SplitMix64(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	r.hasGauss = false
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Intn returns a uniform integer in [0, n). Like math/rand.Intn it
// panics if n <= 0 — a caller bug, not a configuration to validate.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	// Rejection sampling on the top bits avoids modulo bias.
	mask := ^uint64(0)
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	limit := mask - mask%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(k+1)^alpha, the tailed popularity distribution the paper's
// micro-benchmarks use (Table 4: alpha = 0.8, 1.2, 1.6).
//
// It uses an alias-free inverted-CDF table built once at construction,
// so sampling is O(log n).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent alpha > 0.
// A degenerate configuration (n <= 0, alpha <= 0 or NaN, nil rng) is
// reported as an error rather than a panic: the parameters usually come
// straight from workload configuration.
func NewZipf(rng *RNG, n int, alpha float64) (*Zipf, error) {
	if rng == nil {
		return nil, fmt.Errorf("sim: Zipf needs an RNG")
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: Zipf needs a positive item count, have %d", n)
	}
	if !(alpha > 0) {
		return nil, fmt.Errorf("sim: Zipf needs a positive alpha, have %v", alpha)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -alpha)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, rng: rng}, nil
}

// N returns the number of items the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }

// Next returns the next sample: rank 0 is the most popular item.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// binary search for the first cdf entry >= u
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Exponential samples integers in [0, n) with probability proportional
// to e^(-lambda*k), the short-tailed distribution of Table 4 (exp1,
// exp2 with lambda = 0.01 and 0.1).
type Exponential struct {
	lambda float64
	n      int
	rng    *RNG
}

// NewExponential builds an exponential sampler over n items with rate
// lambda > 0. Degenerate configurations are reported as errors, like
// NewZipf.
func NewExponential(rng *RNG, n int, lambda float64) (*Exponential, error) {
	if rng == nil {
		return nil, fmt.Errorf("sim: Exponential needs an RNG")
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: Exponential needs a positive item count, have %d", n)
	}
	if !(lambda > 0) {
		return nil, fmt.Errorf("sim: Exponential needs a positive lambda, have %v", lambda)
	}
	return &Exponential{lambda: lambda, n: n, rng: rng}, nil
}

// Next returns the next sample: rank 0 is the most popular item.
func (e *Exponential) Next() int {
	for {
		v := int(e.rng.ExpFloat64() / e.lambda)
		if v < e.n {
			return v
		}
	}
}
