package bch

import (
	"fmt"

	"flashdc/internal/gf"
)

// This file holds the table-driven hot kernels of the codec: the
// byte-wise LFSR encoder, the Horner-form syndrome computation and the
// word-parallel Chien search. Each mirrors a unit of the paper's
// hardware BCH engine (section 4.1.1) — the 32-bit-wide LFSR, the
// 16-lane syndrome datapath and the 16-way parallel Chien search — and
// each is pinned to the retained bit-serial implementation
// (EncodeBitSerial here, SyndromesBitSerial and chienSearchRef in
// ref_test.go) by the differential tests in kernels_test.go.

// buildKernels precomputes the encode and syndrome tables. Called once
// from New; the tables are immutable afterwards, so the Code stays
// safe for concurrent use.
func (c *Code) buildKernels() {
	c.buildEncTab()
	c.buildSynTab()
}

// encWords returns the remainder-register width in 64-bit words.
func (c *Code) encWords() int { return len(c.gen) }

// buildEncTab fills the 256-entry byte-step remainder table. Row v
// holds the register state after feeding byte v (MSB first) into a
// zeroed register with the bit-serial step; by linearity of the LFSR,
//
//	step8(rem, msg) = (rem << 8 masked to p bits) XOR encTab[top8(rem) ^ msg]
//
// which is the CRC-style byte-at-a-time recurrence. Codes with fewer
// than 8 parity bits have no 8-bit register top to fold the message
// byte into; they keep encTab nil and encode bit-serially (such codes
// only appear in tests — every controller strength has p = 15t >= 15).
func (c *Code) buildEncTab() {
	if c.p < 8 {
		return
	}
	w := c.encWords()
	c.encTab = make([]uint64, 256*w)
	rem := make([]uint64, w)
	for v := 0; v < 256; v++ {
		for i := range rem {
			rem[i] = 0
		}
		for i := 7; i >= 0; i-- {
			c.encodeStepBit(rem, v>>i&1)
		}
		copy(c.encTab[v*w:(v+1)*w], rem)
	}
}

// AppendParity appends the ParityBytes() parity image of data to dst
// and returns the extended slice. It is the allocation-free form of
// Encode: the message streams through the remainder table one byte per
// step instead of one bit, the software analogue of the hardware
// encoder's multi-bit LFSR width.
func (c *Code) AppendParity(dst []byte, data []byte) []byte {
	if len(data) != (c.k+7)/8 {
		panic(fmt.Sprintf("bch: Encode data length %d bytes, want %d", len(data), (c.k+7)/8))
	}
	if c.encTab == nil {
		return append(dst, c.EncodeBitSerial(data)...)
	}
	w := c.encWords()
	var remArr [4]uint64
	var rem []uint64
	if w <= len(remArr) {
		rem = remArr[:w]
	} else {
		rem = make([]uint64, w)
	}

	// Feed highest degree first: bits k-1 down to 0 are the last data
	// byte's MSB down to the first byte's LSB. A partial top byte
	// (k % 8 != 0) is fed bit-serially, then whole bytes take the
	// table path.
	i := c.k - 1
	for ; i >= 0 && (i+1)%8 != 0; i-- {
		c.encodeStepBit(rem, dataBit(data, i))
	}
	topW := (c.p - 8) / 64
	topOff := uint((c.p - 8) % 64)
	topWord := (c.p - 1) / 64
	topMask := uint64(1)<<uint((c.p-1)%64+1) - 1
	for byteIdx := (i+1)/8 - 1; byteIdx >= 0; byteIdx-- {
		top := rem[topW] >> topOff
		if topOff > 56 && topW+1 < w {
			top |= rem[topW+1] << (64 - topOff)
		}
		row := int(byte(top)^data[byteIdx]) * w
		// rem <<= 8 within p bits, then fold the table row in.
		var carry uint64
		for j := 0; j <= topWord; j++ {
			next := rem[j] >> 56
			rem[j] = rem[j]<<8 | carry
			carry = next
		}
		rem[topWord] &= topMask
		for j := 0; j <= topWord; j++ {
			rem[j] ^= c.encTab[row+j]
		}
	}
	base := len(dst)
	for j := 0; j < c.ParityBytes(); j++ {
		dst = append(dst, 0)
	}
	out := dst[base:]
	for j := 0; j < c.p; j += 8 {
		b := byte(rem[j/64] >> (j % 64))
		if rest := uint(j % 64); rest > 56 && j/64+1 <= topWord {
			b |= byte(rem[j/64+1] << (64 - rest))
		}
		if c.p-j < 8 {
			b &= byte(1)<<uint(c.p-j) - 1
		}
		out[j/8] = b
	}
	return dst
}

// buildSynTab precomputes the Horner-form syndrome tables for the odd
// syndromes S_1, S_3, ..., S_{2t-1}: row r serves j = 2r+1 and maps an
// 8-bit chunk of the received word (bit i = coefficient of x^i within
// the chunk) to its value at alpha^j. synStep8[r] is the log of the
// Horner byte multiplier alpha^{8j}. synShift[r] bridges the data and
// parity halves of the word: AppendSyndromes folds the data result
// into the parity Horner chain, whose np-1 remaining byte steps
// already contribute alpha^{8j(np-1)} toward the needed alpha^{pj}
// data offset, so the shift supplies only the residue
// alpha^{j(p - 8(np-1))}. Even syndromes need no tables: in a binary
// code r(x)^2 = r(x^2), so S_{2i} = S_i^2.
func (c *Code) buildSynTab() {
	f := c.field
	n := f.N()
	c.synTab = make([][256]uint16, c.t)
	c.synStep8 = make([]int, c.t)
	c.synShift = make([]int, c.t)
	np := (c.p + 7) / 8
	for r := 0; r < c.t; r++ {
		j := 2*r + 1
		var pow [8]uint16
		for i := 0; i < 8; i++ {
			pow[i] = f.Exp(j * i)
		}
		tab := &c.synTab[r]
		tab[0] = 0
		for v := 1; v < 256; v++ {
			// Peel the lowest set bit; the rest is already filled.
			low := v & -v
			bit := 0
			for low>>bit != 1 {
				bit++
			}
			tab[v] = tab[v&(v-1)] ^ pow[bit]
		}
		c.synStep8[r] = (8 * j) % n
		c.synShift[r] = ((c.p - 8*(np-1)) * j) % n
	}
}

// AppendSyndromes appends the 2t syndromes of the received word (data
// ++ parity) to dst and returns the extended slice: index j holds
// S_{j+1} = r(alpha^{j+1}), exactly like Syndromes. All-zero appended
// values mean the word is a valid codeword.
//
// Odd syndromes are computed by a byte-at-a-time Horner evaluation
// through the precomputed chunk tables — r(a) = D(a)*a^p + P(a) with
// each factor folded one byte per step — and even syndromes follow by
// Frobenius squaring (S_{2i} = S_i^2). The per-bit reference costs 2t
// field exponentiations per set bit of the word; this form costs one
// table lookup and one multiply per byte per odd syndrome. The byte
// loop is outermost and the t chains innermost: each chain is a serial
// log -> exp -> xor dependency, so running the independent chains
// side by side per byte overlaps their load latencies (the software
// shape of the paper's 16-lane syndrome datapath).
func (c *Code) AppendSyndromes(dst []uint16, data, parity []byte) []uint16 {
	f := c.field
	exp := f.ExpPadded()
	log16 := f.LogPadded()
	base := len(dst)
	for j := 0; j < 2*c.t; j++ {
		dst = append(dst, 0)
	}
	s := dst[base:]

	dataMask := byte(0xFF)
	if c.k%8 != 0 {
		dataMask = byte(1)<<uint(c.k%8) - 1
	}
	parityMask := byte(0xFF)
	if c.p%8 != 0 {
		parityMask = byte(1)<<uint(c.p%8) - 1
	}
	nd := (c.k + 7) / 8
	np := (c.p + 7) / 8

	// Stack accumulators for every controller strength (t <= 12); the
	// heap path only triggers for oversized test codes.
	var accArr [16]uint16
	var accs []uint16
	if c.t <= len(accArr) {
		accs = accArr[:c.t]
	} else {
		accs = make([]uint16, c.t)
	}
	tabs := c.synTab
	steps := c.synStep8

	// D(alpha^j) for every odd j: Horner over data bytes, highest
	// degree first.
	top := data[nd-1] & dataMask
	for r := range accs {
		accs[r] = tabs[r][top]
	}
	for q := nd - 2; q >= 0; q-- {
		b := data[q]
		for r := range accs {
			acc := accs[r]
			if acc != 0 {
				acc = exp[uint16(int(log16[acc])+steps[r])]
			}
			accs[r] = acc ^ tabs[r][b]
		}
	}
	// Shift the data part up by the parity width — D(a^j)*a^{pj} —
	// then continue the same Horner chains through the parity bytes:
	// r(a) = D(a)*a^p + P(a).
	ptop := parity[np-1] & parityMask
	for r := range accs {
		acc := accs[r]
		if acc != 0 {
			acc = exp[uint16(int(log16[acc])+c.synShift[r])]
		}
		accs[r] = acc ^ tabs[r][ptop]
	}
	for q := np - 2; q >= 0; q-- {
		b := parity[q]
		for r := range accs {
			acc := accs[r]
			if acc != 0 {
				acc = exp[uint16(int(log16[acc])+steps[r])]
			}
			accs[r] = acc ^ tabs[r][b]
		}
	}
	for r := range accs {
		s[2*r] = accs[r]
	}
	// Even syndromes by squaring: S_{2i} = S_i^2, filled in increasing
	// order so S_{i} is always ready (i < 2i).
	// The exp table is doubled, so 2*log needs no reduction mod n.
	for j := 2; j <= 2*c.t; j += 2 {
		v := s[j/2-1]
		if v != 0 {
			v = exp[uint16(2*int(log16[v]))]
		}
		s[j-1] = v
	}
	return dst
}

// chienSearch locates the error positions with the word-parallel
// kernel: sixteen consecutive candidate positions are evaluated per
// pass (independent accumulator lanes, the software shape of the
// paper's 16-way parallel Chien hardware), each nonzero locator
// coefficient steps through the log domain (one exp-table load per
// term per position, no zero checks), and the scan stops as soon as
// all deg roots are found — a degree-deg polynomial has no further roots, so
// the tail of the word cannot change the outcome. Returns ok=false
// when fewer than deg roots lie inside the shortened word (decoder
// overload), exactly like chienSearchRef.
func (c *Code) chienSearch(sigma gf.Poly, sc *decodeScratch) ([]int, bool) {
	f := c.field
	n := f.N()
	exp := f.ExpPadded()
	logT := f.LogTable()
	deg := sigma.Deg()

	// Gather the nonzero coefficients once: lanes step only live
	// terms. Term of degree d steps its log BACKWARD by d per position
	// (alpha^{-d} per candidate); d <= t is tiny, so the mod-n wrap
	// only fires every ~n/d positions and a single range check covers a
	// whole 8-lane pass. sigma[0] is nonzero by construction (sigma(0)
	// != 0 for any locator); it contributes a constant to every
	// evaluation.
	lg := sc.chienLog[:0]
	st := sc.chienStep[:0]
	for d := 1; d <= deg; d++ {
		if sigma[d] == 0 {
			continue
		}
		lg = append(lg, int32(logT[sigma[d]]))
		st = append(st, int32(d))
	}
	sc.chienLog, sc.chienStep = lg, st
	terms := lg
	degs := st
	konst := sigma[0]

	// Packed zero test: field elements are at most 15 bits, so in a
	// uint64 holding four 16-bit lanes the classic (x-1) & ^x trick
	// raises a lane's top bit exactly when that lane is zero (borrow
	// propagation can corrupt lanes above the lowest zero, so a hit
	// falls back to the exact per-lane scan — roots are rare, at most
	// deg per word, so the slow path almost never runs).
	const ones = 0x0001000100010001
	const tops = 0x8000800080008000

	positions := sc.positions[:0]
	n32 := int32(n)
	var wrap [16]uint16
	for i := 0; i < c.n; i += 16 {
		s0, s1, s2, s3 := konst, konst, konst, konst
		s4, s5, s6, s7 := konst, konst, konst, konst
		s8, s9, s10, s11 := uint16(0), uint16(0), uint16(0), uint16(0)
		s12, s13, s14, s15 := uint16(0), uint16(0), uint16(0), uint16(0)
		wrapped := false
		for ti := range terms {
			l := terms[ti]
			d := degs[ti]
			if l >= 15*d {
				// No wrap possible inside this pass: straight-line
				// loads with one trailing wrap fix.
				s0 ^= exp[uint16(l)]
				l -= d
				s1 ^= exp[uint16(l)]
				l -= d
				s2 ^= exp[uint16(l)]
				l -= d
				s3 ^= exp[uint16(l)]
				l -= d
				s4 ^= exp[uint16(l)]
				l -= d
				s5 ^= exp[uint16(l)]
				l -= d
				s6 ^= exp[uint16(l)]
				l -= d
				s7 ^= exp[uint16(l)]
				l -= d
				s8 ^= exp[uint16(l)]
				l -= d
				s9 ^= exp[uint16(l)]
				l -= d
				s10 ^= exp[uint16(l)]
				l -= d
				s11 ^= exp[uint16(l)]
				l -= d
				s12 ^= exp[uint16(l)]
				l -= d
				s13 ^= exp[uint16(l)]
				l -= d
				s14 ^= exp[uint16(l)]
				l -= d
				s15 ^= exp[uint16(l)]
				l -= d
				if l < 0 {
					l += n32
				}
				terms[ti] = l
				continue
			}
			// This term's log crosses zero inside the pass (once per
			// ~n/d positions): take the checked per-lane path into a
			// side buffer and fold it in below.
			wrapped = true
			for lane := range wrap {
				wrap[lane] ^= exp[uint16(l)]
				l -= d
				if l < 0 {
					l += n32
				}
			}
			terms[ti] = l
		}
		if wrapped {
			s0 ^= wrap[0]
			s1 ^= wrap[1]
			s2 ^= wrap[2]
			s3 ^= wrap[3]
			s4 ^= wrap[4]
			s5 ^= wrap[5]
			s6 ^= wrap[6]
			s7 ^= wrap[7]
			s8 ^= wrap[8]
			s9 ^= wrap[9]
			s10 ^= wrap[10]
			s11 ^= wrap[11]
			s12 ^= wrap[12]
			s13 ^= wrap[13]
			s14 ^= wrap[14]
			s15 ^= wrap[15]
			wrap = [16]uint16{}
		}
		// The upper eight lanes start from zero so the broadcast of
		// konst stays off the dependency chains; fold it in here.
		s8 ^= konst
		s9 ^= konst
		s10 ^= konst
		s11 ^= konst
		s12 ^= konst
		s13 ^= konst
		s14 ^= konst
		s15 ^= konst
		x0 := uint64(s0) | uint64(s1)<<16 | uint64(s2)<<32 | uint64(s3)<<48
		x1 := uint64(s4) | uint64(s5)<<16 | uint64(s6)<<32 | uint64(s7)<<48
		x2 := uint64(s8) | uint64(s9)<<16 | uint64(s10)<<32 | uint64(s11)<<48
		x3 := uint64(s12) | uint64(s13)<<16 | uint64(s14)<<32 | uint64(s15)<<48
		if ((x0-ones)&^x0|(x1-ones)&^x1|(x2-ones)&^x2|(x3-ones)&^x3)&tops != 0 {
			lanes := [16]uint16{
				s0, s1, s2, s3, s4, s5, s6, s7,
				s8, s9, s10, s11, s12, s13, s14, s15,
			}
			for lane := 0; lane < 16 && i+lane < c.n; lane++ {
				if lanes[lane] == 0 {
					positions = append(positions, i+lane)
					if len(positions) == deg {
						sc.positions = positions
						return positions, true
					}
				}
			}
		}
	}
	sc.positions = positions
	return positions, false
}
