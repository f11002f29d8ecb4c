package gf

import (
	"testing"
	"testing/quick"
)

func TestPoly2Basics(t *testing.T) {
	var p Poly2
	if !p.IsZero() || p.Degree() != -1 {
		t.Fatal("zero value not the zero polynomial")
	}
	p.SetBit(0)
	p.SetBit(70)
	if p.Degree() != 70 || p.Bit(0) != 1 || p.Bit(70) != 1 || p.Bit(35) != 0 {
		t.Fatalf("SetBit/Bit/Degree wrong: %v", p)
	}
	if p.String() != "x^70 + 1" {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestPoly2MulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2)
	a := Poly2FromUint32(0b11)
	got := a.Mul(a)
	if !got.Equal(Poly2FromUint32(0b101)) {
		t.Fatalf("(x+1)^2 = %v, want x^2 + 1", got)
	}
	// (x^2+x+1)(x+1) = x^3+1
	b := Poly2FromUint32(0b111).Mul(Poly2FromUint32(0b11))
	if !b.Equal(Poly2FromUint32(0b1001)) {
		t.Fatalf("got %v, want x^3 + 1", b)
	}
}

func TestPoly2MulCrossesWordBoundary(t *testing.T) {
	a := NewPoly2(63)
	a.SetBit(63)
	a.SetBit(0)
	b := Poly2FromUint32(0b11) // x + 1
	got := a.Mul(b)
	want := NewPoly2(64)
	for _, i := range []int{64, 63, 1, 0} {
		want.SetBit(i)
	}
	if !got.Equal(want) {
		t.Fatalf("cross-word Mul = %v, want %v", got, want)
	}
}

func TestPoly2XorIsInvolution(t *testing.T) {
	f := func(aBits, bBits uint32) bool {
		a := Poly2FromUint32(aBits)
		b := Poly2FromUint32(bBits)
		c := Poly2FromUint32(aBits)
		c.Xor(b)
		c.Xor(b)
		return c.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolyDegAndTrim(t *testing.T) {
	p := Poly{1, 0, 3, 0, 0}
	if p.Deg() != 2 {
		t.Fatalf("Deg = %d, want 2", p.Deg())
	}
	if got := p.Trim(); len(got) != 3 {
		t.Fatalf("Trim len = %d, want 3", len(got))
	}
	if Poly(nil).Deg() != -1 || (Poly{0, 0}).Deg() != -1 {
		t.Fatal("zero polynomial degree wrong")
	}
}
