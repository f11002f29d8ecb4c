package gf

// Poly is a polynomial with coefficients in GF(2^m); index i holds the
// coefficient of x^i. A nil or empty slice is the zero polynomial.
// Polynomials over the extension field drive the Berlekamp-Massey and
// Chien search stages of the BCH decoder.
type Poly []uint16

// Deg returns the degree, or -1 for the zero polynomial. Trailing zero
// coefficients are ignored.
func (p Poly) Deg() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Trim returns p without trailing zero coefficients.
func (p Poly) Trim() Poly { return p[:p.Deg()+1] }
