// Package ecc implements the error correction and detection layer of
// the programmable Flash memory controller (paper section 4.1): a
// variable-strength BCH corrector protected by a CRC-32 detector, laid
// out in the 64-byte spare area of a 2KB Flash page, plus the latency
// model of the paper's 100MHz hardware accelerator (Berlekamp engine
// and 16-way parallel Chien search) that produces Figure 6(a).
package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"flashdc/internal/bch"
	"flashdc/internal/sim"
)

// PageSize is the Flash page data size the controller is wired for.
// The paper fixes the programmable engine to 2KB blocks to avoid
// memory-alignment complexity (section 4.1.1).
const PageSize = 2048

// SpareSize is the per-page spare area available for check bits: 64
// bytes on the SLC-mode page layout of Figure 1(a).
const SpareSize = 64

// MaxStrength is the largest number of correctable errors the
// controller supports (section 4.1: "limit the maximum number of
// correctable errors to 12").
const MaxStrength = 12

// fieldDegree is the BCH field degree: GF(2^15) covers the 16384 data
// bits of a 2KB page.
const fieldDegree = 15

// Strength is an ECC code strength: the number of correctable bit
// errors per page. Valid controller strengths are 1..MaxStrength.
// It is an int32 because the FPST keeps two per Flash page: the
// studies pin at most 64, and the narrower field saves 8 bytes a page.
type Strength int32

// Validate returns an error unless s is a strength the controller
// implements.
func (s Strength) Validate() error {
	if s < 1 || s > MaxStrength {
		return fmt.Errorf("ecc: strength %d outside [1, %d]", s, MaxStrength)
	}
	return nil
}

// Errors reported by Decode.
var (
	// ErrUncorrectable means the BCH decoder proved the error pattern
	// exceeds the configured strength.
	ErrUncorrectable = errors.New("ecc: uncorrectable page")
	// ErrSilentCorruption means BCH "succeeded" but the CRC check
	// failed afterwards: the false-positive case CRC exists to catch
	// (section 4.1.2).
	ErrSilentCorruption = errors.New("ecc: CRC mismatch after BCH correction")
)

// Codec encodes and decodes 2KB pages at any supported strength. Codes
// are built lazily and cached; a Codec is safe for concurrent use.
//
// The cache is lock-free: each strength has its own atomic slot, so
// callers at already-built strengths never serialize behind a
// concurrent first-time construction at another strength (the old
// single-mutex design made every Encode/Decode contend on one lock).
// Two goroutines racing to build the same strength may both construct
// it; one result wins the CompareAndSwap and the loser is discarded —
// codes are immutable and all constructions are identical, and the
// underlying GF(2^15) field is shared process-wide (gf.Cached via
// bch.New), so the duplicated work is bounded and rare.
type Codec struct {
	codes [MaxStrength + 1]atomic.Pointer[bch.Code]
}

// NewCodec returns an empty codec; codes materialise on first use.
func NewCodec() *Codec { return &Codec{} }

func (c *Codec) code(s Strength) *bch.Code {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	slot := &c.codes[s]
	if code := slot.Load(); code != nil {
		return code
	}
	code, err := bch.New(fieldDegree, int(s), PageSize*8)
	if err != nil {
		panic(fmt.Sprintf("ecc: building t=%d page code: %v", s, err))
	}
	if !slot.CompareAndSwap(nil, code) {
		return slot.Load()
	}
	return code
}

// SpareBytes returns the spare-area bytes consumed at strength s:
// 4 bytes of CRC plus the BCH parity.
func (c *Codec) SpareBytes(s Strength) int {
	return crc32.Size + c.code(s).ParityBytes()
}

// Encode protects a PageSize data buffer at strength s and returns the
// spare-area image: CRC-32 of the data followed by BCH parity. The
// result always fits SpareSize.
func (c *Codec) Encode(s Strength, data []byte) []byte {
	if len(data) != PageSize {
		panic(fmt.Sprintf("ecc: Encode with %d-byte page, want %d", len(data), PageSize))
	}
	code := c.code(s)
	spare := binary.LittleEndian.AppendUint32(make([]byte, 0, crc32.Size+code.ParityBytes()), crc32.ChecksumIEEE(data))
	spare = code.AppendParity(spare, data)
	if len(spare) > SpareSize {
		panic(fmt.Sprintf("ecc: t=%d spare image %dB exceeds %dB spare area", s, len(spare), SpareSize))
	}
	return spare
}

// Decode corrects data in place using the spare image produced by
// Encode at the same strength. It returns the number of corrected bit
// errors. ErrUncorrectable and ErrSilentCorruption report the two
// failure modes; in both cases data contents are unspecified.
func (c *Codec) Decode(s Strength, data, spare []byte) (int, error) {
	if len(data) != PageSize {
		panic(fmt.Sprintf("ecc: Decode with %d-byte page, want %d", len(data), PageSize))
	}
	code := c.code(s)
	want := crc32.Size + code.ParityBytes()
	if len(spare) != want {
		panic(fmt.Sprintf("ecc: Decode with %d-byte spare, want %d at t=%d", len(spare), want, s))
	}
	parity := append([]byte(nil), spare[crc32.Size:]...)
	res, err := code.Decode(data, parity)
	if err != nil {
		return 0, ErrUncorrectable
	}
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(spare) {
		return 0, ErrSilentCorruption
	}
	return res.Corrected, nil
}

// FlipBits flips n distinct bits of a page image, drawn uniformly from
// the data area followed by the spare area (nil for data only), and
// caps n at the bits there are. The positions depend only on rng, so
// a caller that seeds it from the page's address and erase count sees
// a worn page fail the same way on every read (section 5.2.1).
func FlipBits(rng *sim.RNG, n int, data, spare []byte) {
	dataBits := len(data) * 8
	total := dataBits + len(spare)*8
	n = min(n, total)
	seen := make(map[int]bool, n)
	for len(seen) < n {
		pos := rng.Intn(total)
		if seen[pos] {
			continue
		}
		seen[pos] = true
		if pos < dataBits {
			data[pos/8] ^= 1 << (pos % 8)
		} else {
			spare[(pos-dataBits)/8] ^= 1 << ((pos - dataBits) % 8)
		}
	}
}
