// Package bch implements binary BCH (Bose–Ray-Chaudhuri–Hocquenghem)
// block codes: systematic encoding through an LFSR-equivalent remainder
// computation, and decoding through syndrome computation, the
// Berlekamp–Massey algorithm and Chien search — the same structure as
// the hardware engine in section 4.1.1 of the paper.
//
// Codes are shortened: a message of k data bits plus p parity bits is
// embedded in the natural code of length 2^m - 1 with the leading
// positions fixed at zero. A 2KB Flash page (16384 data bits) uses
// GF(2^15), where each additional correctable error costs 15 parity
// bits — matching the paper's "append approximately log(n) bits per
// correctable error".
package bch

import (
	"errors"
	"fmt"
	"sync"

	"flashdc/internal/gf"
)

// ErrUncorrectable is returned by Decode when the received word holds
// more errors than the code can correct and the decoder detected it.
// Note that, as the paper observes (section 4.1.2), a BCH decoder
// cannot always detect overload — some patterns mis-correct silently,
// which is why the Flash controller layers a CRC on top.
var ErrUncorrectable = errors.New("bch: uncorrectable error pattern")

// Code is a t-error-correcting binary BCH code over GF(2^m), shortened
// to k data bits. A Code is immutable and safe for concurrent use.
type Code struct {
	field *gf.Field
	t     int // designed correction capability
	k     int // data bits
	p     int // parity bits = deg(generator)
	n     int // shortened code length = k + p

	gen []uint64 // generator polynomial bits (degree p)

	// Table-driven kernel state, built once by New (see kernels.go).
	// encTab is the byte-step remainder table: 256 rows of len(gen)
	// words, row v holding (v(x) * x^p) mod g for the 8-bit message
	// polynomial v fed MSB-first. synTab[r] evaluates an 8-bit
	// polynomial at alpha^(2r+1); synStep8/synShift hold the Horner
	// multiplier and parity-offset logs for the same odd syndrome rows.
	encTab   []uint64
	synTab   [][256]uint16
	synStep8 []int
	synShift []int

	// scratch pools per-decode working memory (syndromes, Chien state,
	// error positions) so steady-state Decode stays off the allocator.
	scratch sync.Pool
}

// decodeScratch is the reusable working set of one Decode call.
type decodeScratch struct {
	synd      []uint16
	positions []int
	chienLog  []int32
	chienStep []int32
	// bm0..bm2 back the three Berlekamp–Massey polynomials (current,
	// previous, next); the algorithm rotates them instead of
	// allocating a fresh polynomial per discrepancy.
	bm0, bm1, bm2 gf.Poly
}

// New constructs a t-error-correcting code for dataBits of payload over
// GF(2^m). It returns an error when the shortened length would exceed
// the natural code length 2^m - 1 or the parameters are non-positive.
func New(m, t, dataBits int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t must be >= 1, got %d", t)
	}
	if dataBits < 1 {
		return nil, fmt.Errorf("bch: dataBits must be >= 1, got %d", dataBits)
	}
	// All codes over the same degree share one immutable field: the
	// exp/log tables dominate a code's memory footprint, and the ECC
	// codec builds one code per strength over the same GF(2^15).
	field := gf.Cached(m)
	// Generator = lcm of minimal polynomials of alpha^1 .. alpha^2t.
	// Even powers share cosets with odd ones, so iterate odd i only.
	gen := gf.Poly2FromUint32(1)
	seen := map[int]bool{}
	for i := 1; i <= 2*t; i += 2 {
		if seen[i] {
			continue // alpha^i shares a coset (and minimal polynomial)
			// with an earlier root, already folded into gen.
		}
		c := i
		for {
			seen[c] = true
			c = (2 * c) % field.N()
			if c == i {
				break
			}
		}
		gen = gen.Mul(field.MinPolynomial(i))
	}
	p := gen.Degree()
	if dataBits+p > field.N() {
		return nil, fmt.Errorf("bch: shortened length %d exceeds natural length %d (m=%d t=%d)",
			dataBits+p, field.N(), m, t)
	}
	c := &Code{field: field, t: t, k: dataBits, p: p, n: dataBits + p}
	c.gen = make([]uint64, p/64+1)
	for i := 0; i <= p; i++ {
		if gen.Bit(i) == 1 {
			c.gen[i/64] |= 1 << (i % 64)
		}
	}
	c.buildKernels()
	return c, nil
}

// T returns the number of errors the code corrects.
func (c *Code) T() int { return c.t }

// DataBits returns k, the payload length in bits.
func (c *Code) DataBits() int { return c.k }

// ParityBits returns p, the number of check bits (deg of the generator).
func (c *Code) ParityBits() int { return c.p }

// ParityBytes returns the parity size rounded up to whole bytes, the
// spare-area footprint in a Flash page.
func (c *Code) ParityBytes() int { return (c.p + 7) / 8 }

// Length returns the shortened code length n = k + p in bits.
func (c *Code) Length() int { return c.n }

// dataBit reads message bit i (LSB-first within each byte).
func dataBit(data []byte, i int) int {
	return int(data[i>>3]>>(i&7)) & 1
}

func flipBit(buf []byte, i int) {
	buf[i>>3] ^= 1 << (i & 7)
}

// Encode computes the parity for data, whose length must be exactly
// ceil(k/8) bytes (trailing bits of the last byte beyond k are ignored).
// The returned slice has ParityBytes() bytes, parity bit i stored
// LSB-first.
//
// The computation is the software equivalent of the hardware LFSR,
// run eight message bits per step through the 256-entry remainder
// table (see kernels.go). EncodeBitSerial retains the one-bit-per-step
// form as the differential reference.
func (c *Code) Encode(data []byte) []byte {
	return c.AppendParity(make([]byte, 0, c.ParityBytes()), data)
}

// EncodeBitSerial is the original one-bit-per-cycle LFSR encoder,
// kept as the differential-test reference for the table-driven
// Encode/AppendParity kernel. It computes the same parity ~50x
// slower.
func (c *Code) EncodeBitSerial(data []byte) []byte {
	if len(data) != (c.k+7)/8 {
		panic(fmt.Sprintf("bch: Encode data length %d bytes, want %d", len(data), (c.k+7)/8))
	}
	// rem is a p-bit shift register.
	rem := make([]uint64, len(c.gen))
	// Feed message bits highest degree first (bit k-1 down to 0).
	for i := c.k - 1; i >= 0; i-- {
		c.encodeStepBit(rem, dataBit(data, i))
	}
	out := make([]byte, c.ParityBytes())
	for i := 0; i < c.p; i++ {
		if rem[i/64]>>(i%64)&1 == 1 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// encodeStepBit advances the LFSR remainder register by one message
// bit: the shared inner step of the bit-serial encoder and the
// remainder-table construction.
func (c *Code) encodeStepBit(rem []uint64, bit int) {
	topWord := (c.p - 1) / 64
	topBit := uint((c.p - 1) % 64)
	feedback := bit ^ int(rem[topWord]>>topBit)&1
	// rem <<= 1 (within p bits)
	var carry uint64
	for w := 0; w <= topWord; w++ {
		next := rem[w] >> 63
		rem[w] = rem[w]<<1 | carry
		carry = next
	}
	if feedback != 0 {
		for w := range rem {
			rem[w] ^= c.gen[w]
		}
	}
	// Mask bits above p-1 plus the generator's top bit which the
	// XOR just cleared implicitly (gen bit p aligns with shifted
	// out feedback). Clear any residue above p-1:
	rem[topWord] &= (uint64(1) << (topBit + 1)) - 1
	for w := topWord + 1; w < len(rem); w++ {
		rem[w] = 0
	}
}

// DecodeResult carries decoder diagnostics alongside the correction.
type DecodeResult struct {
	Corrected int  // number of bit errors fixed (0 if word was clean)
	Detected  bool // syndromes were non-zero
}

// Decode checks and corrects data+parity in place. It returns the
// number of corrected bit errors, or ErrUncorrectable when the decoder
// can prove the pattern exceeds t errors. Both slices must have the
// exact sizes produced by Encode.
func (c *Code) Decode(data, parity []byte) (DecodeResult, error) {
	if len(data) != (c.k+7)/8 {
		panic(fmt.Sprintf("bch: Decode data length %d bytes, want %d", len(data), (c.k+7)/8))
	}
	if len(parity) != c.ParityBytes() {
		panic(fmt.Sprintf("bch: Decode parity length %d bytes, want %d", len(parity), c.ParityBytes()))
	}
	sc, _ := c.scratch.Get().(*decodeScratch)
	if sc == nil {
		sc = &decodeScratch{}
	}
	defer c.scratch.Put(sc)
	sc.synd = c.AppendSyndromes(sc.synd[:0], data, parity)
	synd := sc.synd
	allZero := true
	for _, v := range synd {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return DecodeResult{}, nil
	}

	sigma, ok := c.berlekampMassey(synd, sc)
	if !ok {
		return DecodeResult{Detected: true}, ErrUncorrectable
	}
	positions, ok := c.chienSearch(sigma, sc)
	if !ok {
		return DecodeResult{Detected: true}, ErrUncorrectable
	}
	for _, pos := range positions {
		if pos < c.p {
			flipBit(parity, pos)
		} else {
			flipBit(data, pos-c.p)
		}
	}
	return DecodeResult{Corrected: len(positions), Detected: true}, nil
}

// berlekampMassey finds the error locator polynomial sigma from the
// syndromes. It returns ok=false when the resulting locator degree
// exceeds t or is inconsistent, both signs of decoder overload. The
// three working polynomials live in (and rotate through) the decode
// scratch, so steady-state calls never touch the allocator; the
// returned locator aliases scratch memory and is only valid until the
// scratch returns to the pool.
func (c *Code) berlekampMassey(s []uint16, sc *decodeScratch) (gf.Poly, bool) {
	f := c.field
	cur := append(sc.bm0[:0], 1) // C(x)
	prev := append(sc.bm1[:0], 1)
	spare := sc.bm2[:0]
	l := 0
	mGap := 1
	b := uint16(1)
	for i := 0; i < len(s); i++ {
		// discrepancy d = S_i + sum_{j=1..l} C_j S_{i-j}
		d := s[i]
		for j := 1; j <= l && j < len(cur); j++ {
			if cur[j] != 0 && i-j >= 0 {
				d ^= f.Mul(cur[j], s[i-j])
			}
		}
		if d == 0 {
			mGap++
			continue
		}
		coef := f.Div(d, b)
		// next = cur + coef * x^mGap * prev, built in the spare buffer.
		width := mGap + len(prev)
		if len(cur) > width {
			width = len(cur)
		}
		next := spare[:0]
		for j := 0; j < width; j++ {
			next = append(next, 0)
		}
		for j, v := range prev {
			next[mGap+j] = f.Mul(coef, v)
		}
		for j, v := range cur {
			next[j] ^= v
		}
		if 2*l <= i {
			spare = prev
			prev = cur
			l = i + 1 - l
			b = d
			mGap = 1
		} else {
			spare = cur
			mGap++
		}
		cur = next
	}
	sc.bm0, sc.bm1, sc.bm2 = cur, prev, spare
	cur = cur.Trim()
	if cur.Deg() != l || l > c.t {
		return nil, false
	}
	return cur, true
}
