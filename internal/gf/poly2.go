package gf

import (
	"math/bits"
	"strings"
)

// Poly2 is a polynomial over GF(2), stored as a bit vector with bit i
// of word i/64 representing the coefficient of x^i. The zero value is
// the zero polynomial.
type Poly2 struct {
	words []uint64
}

// NewPoly2 returns a zero polynomial with capacity for degree deg.
func NewPoly2(deg int) Poly2 {
	return Poly2{words: make([]uint64, deg/64+1)}
}

// Poly2FromUint32 builds a polynomial from a packed uint32 (bit i =
// coefficient of x^i), handy for small fixed polynomials.
func Poly2FromUint32(v uint32) Poly2 {
	return Poly2{words: []uint64{uint64(v)}}
}

// SetBit sets the coefficient of x^i to 1, growing storage as needed.
func (p *Poly2) SetBit(i int) {
	w := i / 64
	for w >= len(p.words) {
		p.words = append(p.words, 0)
	}
	p.words[w] |= 1 << (i % 64)
}

// Bit returns the coefficient of x^i.
func (p Poly2) Bit(i int) int {
	w := i / 64
	if w >= len(p.words) {
		return 0
	}
	return int(p.words[w] >> (i % 64) & 1)
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly2) Degree() int {
	for w := len(p.words) - 1; w >= 0; w-- {
		if p.words[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(p.words[w])
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p Poly2) IsZero() bool { return p.Degree() < 0 }

// Xor adds q into p in place (addition over GF(2)).
func (p *Poly2) Xor(q Poly2) {
	for len(p.words) < len(q.words) {
		p.words = append(p.words, 0)
	}
	for i, w := range q.words {
		p.words[i] ^= w
	}
}

// Mul returns p * q.
func (p Poly2) Mul(q Poly2) Poly2 {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return Poly2{}
	}
	out := NewPoly2(dp + dq)
	for i := 0; i <= dp; i++ {
		if p.Bit(i) == 0 {
			continue
		}
		// out += q << i
		shift, offset := i%64, i/64
		for w := 0; w < len(q.words); w++ {
			v := q.words[w]
			if v == 0 {
				continue
			}
			out.words[w+offset] ^= v << shift
			if shift != 0 && w+offset+1 < len(out.words) {
				out.words[w+offset+1] ^= v >> (64 - shift)
			}
		}
	}
	return out
}

// Equal reports whether p and q are the same polynomial.
func (p Poly2) Equal(q Poly2) bool {
	long, short := p.words, q.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// String renders the polynomial as "x^5 + x^2 + 1" for debugging.
func (p Poly2) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var terms []string
	for i := d; i >= 0; i-- {
		if p.Bit(i) == 0 {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, "1")
		case 1:
			terms = append(terms, "x")
		default:
			terms = append(terms, "x^"+itoa(i))
		}
	}
	return strings.Join(terms, " + ")
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
