package bch

import "flashdc/internal/gf"

// The bit-serial references of the syndrome and Chien-search kernels.
// Only the kernel tests call them, so they live here; EncodeBitSerial
// stays in bch.go because AppendParity falls back to it.

// SyndromesBitSerial is the original per-set-bit syndrome computation
// — 2t field exponentiations per one bit of the received word — kept
// as the differential-test reference for the Horner-form
// AppendSyndromes kernel.
func (c *Code) SyndromesBitSerial(data, parity []byte) []uint16 {
	s := make([]uint16, 2*c.t)
	f := c.field
	n := f.N()
	addPosition := func(pos int) {
		// Contribution of codeword coefficient x^pos: alpha^(pos*j).
		for j := range s {
			s[j] ^= f.Exp(pos * (j + 1) % n)
		}
	}
	// Parity occupies degrees [0, p), data occupies [p, p+k).
	for i := 0; i < c.p; i++ {
		if dataBit(parity, i) == 1 {
			addPosition(i)
		}
	}
	for i := 0; i < c.k; i++ {
		if dataBit(data, i) == 1 {
			addPosition(c.p + i)
		}
	}
	return s
}

// chienSearchRef is the original one-position-per-step Chien search,
// kept as the differential-test reference for the word-parallel
// kernel in kernels.go: every i in [0, n) with sigma(alpha^{-i}) == 0
// is an error at codeword coefficient x^i. It returns ok=false when
// the number of roots inside the shortened word does not match the
// locator degree (some roots fell in the shortened prefix or in no
// position at all), indicating decoder overload.
func (c *Code) chienSearchRef(sigma gf.Poly) ([]int, bool) {
	f := c.field
	deg := sigma.Deg()
	// terms[d] tracks sigma_d * alpha^{-i*d}; start at i=0.
	terms := make([]uint16, deg+1)
	copy(terms, sigma[:deg+1])
	step := make([]uint16, deg+1)
	for d := 0; d <= deg; d++ {
		step[d] = f.Exp(-d)
	}
	var positions []int
	for i := 0; i < c.n; i++ {
		var sum uint16
		for d := 0; d <= deg; d++ {
			sum ^= terms[d]
		}
		if sum == 0 {
			positions = append(positions, i)
			if len(positions) > deg {
				return nil, false
			}
		}
		for d := 1; d <= deg; d++ {
			terms[d] = f.Mul(terms[d], step[d])
		}
	}
	if len(positions) != deg {
		return nil, false
	}
	return positions, true
}
