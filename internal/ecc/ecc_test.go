package ecc

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"

	"flashdc/internal/sim"
)

func randomPage(seed uint64) []byte {
	rng := sim.NewRNG(seed)
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(rng.Uint64())
	}
	return page
}

func flip(page []byte, rng *sim.RNG, n int) { FlipBits(rng, n, page, nil) }

// countFlips returns the number of bits in which a and b differ.
func countFlips(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// TestFlipBits: exactly n distinct bits flip, the same seed flips the
// same positions, n is capped at the bits of the image, and a nil
// spare confines the flips to the data area.
func TestFlipBits(t *testing.T) {
	data, spare := randomPage(1), randomPage(2)[:SpareSize]
	for _, n := range []int{0, 1, 7, 64, 500} {
		d1, s1 := bytes.Clone(data), bytes.Clone(spare)
		FlipBits(sim.NewRNG(9), n, d1, s1)
		if got := countFlips(d1, data) + countFlips(s1, spare); got != n {
			t.Fatalf("n=%d: %d bits flipped", n, got)
		}
		d2, s2 := bytes.Clone(data), bytes.Clone(spare)
		FlipBits(sim.NewRNG(9), n, d2, s2)
		if !bytes.Equal(d1, d2) || !bytes.Equal(s1, s2) {
			t.Fatalf("n=%d: the same seed flipped different bits", n)
		}
	}
	sawSpare := false
	for seed := uint64(0); seed < 50 && !sawSpare; seed++ {
		s := bytes.Clone(spare)
		FlipBits(sim.NewRNG(seed), 100, bytes.Clone(data), s)
		sawSpare = countFlips(s, spare) > 0
	}
	if !sawSpare {
		t.Fatal("no flip ever landed in the spare area")
	}

	small, smallSpare := []byte{0x0F, 0xF0}, []byte{0xAA}
	FlipBits(sim.NewRNG(3), 1000, small, smallSpare)
	if small[0] != 0xF0 || small[1] != 0x0F || smallSpare[0] != 0x55 {
		t.Fatalf("n past the image did not flip every bit once: % x % x", small, smallSpare)
	}

	d := bytes.Clone(data)
	FlipBits(sim.NewRNG(4), 300, d, nil)
	if got := countFlips(d, data); got != 300 {
		t.Fatalf("nil spare: %d data bits flipped, want 300", got)
	}
}

func TestStrengthValidate(t *testing.T) {
	for _, s := range []Strength{1, 6, 12} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%d) = %v", s, err)
		}
	}
	for _, s := range []Strength{0, -1, 13} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%d) accepted", s)
		}
	}
}

func TestSpareFitsAtAllStrengths(t *testing.T) {
	c := NewCodec()
	prev := 0
	for s := Strength(1); s <= MaxStrength; s++ {
		n := c.SpareBytes(s)
		if n > SpareSize {
			t.Fatalf("strength %d spare %dB exceeds %dB", s, n, SpareSize)
		}
		if n <= prev {
			t.Fatalf("spare bytes not increasing at strength %d", s)
		}
		prev = n
	}
	// Paper: CRC 4B + at most 23B BCH check bits at t=12.
	if got := c.SpareBytes(MaxStrength); got != 4+23 {
		t.Fatalf("t=12 spare = %dB, paper says 4+23", got)
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	c := NewCodec()
	page := randomPage(1)
	orig := bytes.Clone(page)
	spare := c.Encode(4, page)
	n, err := c.Decode(4, page, spare)
	if err != nil || n != 0 {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(page, orig) {
		t.Fatal("clean decode mutated page")
	}
}

func TestCorrectsUpToStrength(t *testing.T) {
	c := NewCodec()
	for _, s := range []Strength{1, 4, 8, 12} {
		rng := sim.NewRNG(uint64(s))
		page := randomPage(uint64(100 + s))
		orig := bytes.Clone(page)
		spare := c.Encode(s, page)
		flip(page, rng, int(s))
		n, err := c.Decode(s, page, spare)
		if err != nil {
			t.Fatalf("strength %d: %v", s, err)
		}
		if n != int(s) || !bytes.Equal(page, orig) {
			t.Fatalf("strength %d: corrected %d, restored=%v", s, n, bytes.Equal(page, orig))
		}
	}
}

func TestOverloadReported(t *testing.T) {
	c := NewCodec()
	rng := sim.NewRNG(9)
	fails := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		page := randomPage(uint64(200 + i))
		spare := c.Encode(2, page)
		flip(page, rng, 9)
		if _, err := c.Decode(2, page, spare); err != nil {
			fails++
		}
	}
	// With CRC backstop, overload must essentially always surface.
	if fails != trials {
		t.Fatalf("only %d/%d overloads reported", fails, trials)
	}
}

func TestDecodePanicsOnBadSizes(t *testing.T) {
	c := NewCodec()
	page := randomPage(3)
	spare := c.Encode(1, page)
	for _, fn := range []func(){
		func() { c.Encode(1, page[:100]) },
		func() { c.Decode(1, page[:100], spare) },
		func() { c.Decode(1, page, spare[:len(spare)-1]) },
		func() { c.Encode(0, page) },
		func() { c.SpareBytes(13) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad input did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := NewCodec()
	f := func(seed uint64, sRaw, nErrRaw uint8) bool {
		s := Strength(sRaw%4 + 1) // 1..4 keeps runtime modest
		nErr := int(nErrRaw) % (int(s) + 1)
		rng := sim.NewRNG(seed)
		page := randomPage(seed)
		orig := bytes.Clone(page)
		spare := c.Encode(s, page)
		flip(page, rng, nErr)
		n, err := c.Decode(s, page, spare)
		return err == nil && n == nErr && bytes.Equal(page, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyModelShape(t *testing.T) {
	l := DefaultLatencyModel()
	prev := sim.Duration(0)
	for s := Strength(2); s <= 11; s++ {
		d := l.DecodeLatency(s)
		if d <= prev {
			t.Fatalf("decode latency not increasing at t=%d: %v", s, d)
		}
		prev = d
	}
	// Figure 6(a) envelope: tens of microseconds at t=2, under ~200us
	// at t=11.
	if lo := l.DecodeLatency(2); lo < 20*sim.Microsecond || lo > 100*sim.Microsecond {
		t.Fatalf("t=2 decode latency %v outside figure envelope", lo)
	}
	if hi := l.DecodeLatency(11); hi < 100*sim.Microsecond || hi > 250*sim.Microsecond {
		t.Fatalf("t=11 decode latency %v outside figure envelope", hi)
	}
	// Chien search dominates at high strength (paper: highly
	// parallelised but still the bulk of the work).
	if l.ChienLatency(11) <= l.SyndromeLatency(11) {
		t.Fatal("Chien latency should dominate at high strength")
	}
	// Berlekamp is insignificant (omitted from the paper's figure).
	if l.BerlekampLatency(11) > l.DecodeLatency(11)/50 {
		t.Fatal("Berlekamp latency should be negligible")
	}
}

func TestLatencyCleanCheaperThanFull(t *testing.T) {
	l := DefaultLatencyModel()
	for s := Strength(1); s <= MaxStrength; s++ {
		if l.DecodeLatencyClean(s) >= l.DecodeLatency(s) {
			t.Fatalf("clean decode not cheaper at t=%d", s)
		}
	}
}

func TestEncodeLatencySmall(t *testing.T) {
	l := DefaultLatencyModel()
	if enc := l.EncodeLatency(12); enc > 10*sim.Microsecond {
		t.Fatalf("encode latency %v implausibly large", enc)
	}
}

func TestCodecConcurrentUse(t *testing.T) {
	c := NewCodec()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			page := randomPage(uint64(g))
			spare := c.Encode(Strength(g%MaxStrength+1), page)
			_, err := c.Decode(Strength(g%MaxStrength+1), page, spare)
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
