// Package gf implements arithmetic over binary Galois fields GF(2^m)
// for 2 <= m <= 15, together with polynomials over GF(2) and over
// GF(2^m). It is the mathematical substrate for the BCH error
// correction codec (internal/bch) used by the programmable Flash memory
// controller described in section 4.1 of the paper.
package gf

import (
	"fmt"
	"sync"
)

// primitivePoly[m] is a primitive polynomial of degree m over GF(2),
// encoded with bit i representing x^i. Index 0 and 1 are unused.
var primitivePoly = [16]uint32{
	2:  0x7,    // x^2 + x + 1
	3:  0xB,    // x^3 + x + 1
	4:  0x13,   // x^4 + x + 1
	5:  0x25,   // x^5 + x^2 + 1
	6:  0x43,   // x^6 + x + 1
	7:  0x89,   // x^7 + x^3 + 1
	8:  0x11D,  // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,  // x^9 + x^4 + 1
	10: 0x409,  // x^10 + x^3 + 1
	11: 0x805,  // x^11 + x^2 + 1
	12: 0x1053, // x^12 + x^6 + x^4 + x + 1
	13: 0x201B, // x^13 + x^4 + x^3 + x + 1
	14: 0x4443, // x^14 + x^10 + x^6 + x + 1
	15: 0x8003, // x^15 + x + 1
}

// MaxM is the largest supported field degree. GF(2^15) gives code
// length n = 32767, enough to protect a 2KB (16384-bit) Flash page.
const MaxM = 15

// Field is GF(2^m) represented through exponential and logarithm tables
// of a primitive element alpha. Elements are uint16 values in [0, 2^m).
// Zero is the additive identity and has no logarithm.
type Field struct {
	m   int
	n   int // 2^m - 1, the multiplicative group order
	exp []uint16
	log []int
	// expPad is exp and logPad is log in 16 bits (a quarter of the
	// cache footprint for load-latency-bound kernels), both padded to
	// exactly 2^16 entries so kernels can index them with a uint16 and
	// the compiler can prove every access in bounds. expPad[i] =
	// alpha^(i mod n) for all i; logPad[0] and entries above n are zero
	// and must never be read (kernels skip zero explicitly, like Mul).
	// Only the first 2n (resp. n+1) entries are ever touched on hot
	// paths, so the padding costs address space, not cache.
	expPad *[1 << 16]uint16
	logPad *[1 << 16]uint16
}

// NewField constructs GF(2^m). It panics if m is outside [2, MaxM];
// field construction is a programming-time decision, not an input.
func NewField(m int) *Field {
	if m < 2 || m > MaxM {
		panic(fmt.Sprintf("gf: unsupported field degree %d", m))
	}
	n := 1<<m - 1
	f := &Field{
		m:   m,
		n:   n,
		exp: make([]uint16, 2*n), // doubled so Mul avoids a mod
		log: make([]int, n+1),
	}
	f.logPad = new([1 << 16]uint16)
	poly := primitivePoly[m]
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = uint16(x)
		f.exp[i+n] = uint16(x)
		f.log[x] = i
		f.logPad[x] = uint16(i)
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	f.log[0] = -1 // sentinel; never used on the fast path
	f.expPad = new([1 << 16]uint16)
	for i := range f.expPad {
		f.expPad[i] = f.exp[i%n]
	}
	return f
}

// cached holds the process-wide shared Field per degree. A Field is
// immutable after construction, so every user of GF(2^m) can share one
// instance — rebuilding the 2^16-entry exp/log tables per BCH code (one
// per ECC strength) wastes both construction time and cache footprint.
var cached [MaxM + 1]struct {
	once  sync.Once
	field *Field
}

// Cached returns the shared GF(2^m) instance, constructing it exactly
// once per process. Like NewField it panics when m is outside [2,
// MaxM]. All BCH codes built through bch.New share fields through this
// cache.
func Cached(m int) *Field {
	if m < 2 || m > MaxM {
		panic(fmt.Sprintf("gf: unsupported field degree %d", m))
	}
	c := &cached[m]
	c.once.Do(func() { c.field = NewField(m) })
	return c.field
}

// M returns the field degree m.
func (f *Field) M() int { return f.m }

// N returns 2^m - 1, which is both the multiplicative group order and
// the natural BCH code length for this field.
func (f *Field) N() int { return f.n }

// Add returns a + b in GF(2^m), which is bitwise XOR.
func Add(a, b uint16) uint16 { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a. It panics on a == 0.
func (f *Field) Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[f.n-f.log[a]]
}

// Div returns a / b. It panics on b == 0.
func (f *Field) Div(a, b uint16) uint16 {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.n-f.log[b]]
}

// Exp returns alpha^i for any integer i (negative allowed).
func (f *Field) Exp(i int) uint16 {
	i %= f.n
	if i < 0 {
		i += f.n
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a to base alpha, in [0, n).
// It panics on a == 0.
func (f *Field) Log(a uint16) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return f.log[a]
}

// Pow returns a^k for k >= 0.
func (f *Field) Pow(a uint16, k int) uint16 {
	if k < 0 {
		panic("gf: negative exponent")
	}
	if a == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return f.exp[(f.log[a]*k)%f.n]
}

// LogTable exposes the live logarithm table: LogTable()[a] is the
// discrete log of a for 1 <= a <= n, with LogTable()[0] == -1. Shared
// and read-only.
func (f *Field) LogTable() []int { return f.log }

// ExpPadded returns the exponent table padded to exactly 2^16 entries
// (ExpPadded()[i] == alpha^(i mod n)). The fixed array type lets
// kernels index with a uint16 and have every bounds check eliminated
// at compile time. Shared and read-only.
func (f *Field) ExpPadded() *[1 << 16]uint16 { return f.expPad }

// LogPadded returns LogTable in 16 bits, padded to exactly 2^16
// entries with the same bounds-check-elimination contract as
// ExpPadded. Entries at 0 and above n are zero and must never be used.
func (f *Field) LogPadded() *[1 << 16]uint16 { return f.logPad }

// MinPolynomial returns the minimal polynomial over GF(2) of alpha^i,
// encoded as a GF(2) polynomial (see Poly2). Minimal polynomials are
// the building blocks of BCH generator polynomials.
func (f *Field) MinPolynomial(i int) Poly2 {
	// Collect the cyclotomic coset of i: {i, 2i, 4i, ...} mod n.
	coset := map[int]bool{}
	c := ((i % f.n) + f.n) % f.n
	for !coset[c] {
		coset[c] = true
		c = (2 * c) % f.n
	}
	// Multiply (x - alpha^j) over the coset, with coefficients in
	// GF(2^m); the result is guaranteed to have 0/1 coefficients.
	poly := Poly{1}
	for j := range coset {
		root := f.Exp(j)
		// poly *= (x + root)
		next := make(Poly, len(poly)+1)
		for k, coeff := range poly {
			next[k+1] ^= coeff            // x * coeff
			next[k] ^= f.Mul(coeff, root) // root * coeff
		}
		poly = next
	}
	out := NewPoly2(len(poly) - 1)
	for k, coeff := range poly {
		switch coeff {
		case 0:
		case 1:
			out.SetBit(k)
		default:
			panic("gf: minimal polynomial has non-binary coefficient")
		}
	}
	return out
}
