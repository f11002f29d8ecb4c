package nand

import (
	"bytes"
	"errors"
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

func randomPageData(seed uint64) []byte {
	rng := sim.NewRNG(seed)
	d := make([]byte, PageSize)
	for i := range d {
		d[i] = byte(rng.Uint64())
	}
	return d
}

func TestProgramReadPageRoundTrip(t *testing.T) {
	d := testDevice(1, wear.SLC)
	data := randomPageData(1)
	spare := []byte{1, 2, 3, 4}
	if _, err := d.ProgramPage(PageAddr(0, 0, 0), 42, data, spare); err != nil {
		t.Fatal(err)
	}
	buf, res, err := d.ReadPage(PageAddr(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != 42 {
		t.Fatal("token lost")
	}
	if !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
		t.Fatal("fresh page corrupted")
	}
	// Returned buffers are copies: mutating them must not affect the
	// stored image.
	buf.Data[0] ^= 0xFF
	buf2, _, _ := d.ReadPage(PageAddr(0, 0, 0))
	if buf2.Data[0] != data[0] {
		t.Fatal("ReadPage aliases the stored image")
	}
}

func TestProgramPageValidation(t *testing.T) {
	d := testDevice(1, wear.SLC)
	if _, err := d.ProgramPage(PageAddr(0, 0, 0), 1, make([]byte, 100), nil); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := d.ProgramPage(PageAddr(0, 0, 0), 1, make([]byte, PageSize), make([]byte, SpareSize+1)); err == nil {
		t.Fatal("oversized spare accepted")
	}
	// Write-after-erase still enforced through the payload path.
	if _, err := d.ProgramPage(PageAddr(0, 0, 0), 1, make([]byte, PageSize), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramPage(PageAddr(0, 0, 0), 2, make([]byte, PageSize), nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double program: %v", err)
	}
}

func TestReadPageTokenOnlyFails(t *testing.T) {
	d := testDevice(1, wear.SLC)
	d.Program(PageAddr(0, 1, 0), 7)
	if _, _, err := d.ReadPage(PageAddr(0, 1, 0)); err == nil {
		t.Fatal("ReadPage on token-only page succeeded")
	}
}

func TestEraseClearsPayload(t *testing.T) {
	d := testDevice(1, wear.SLC)
	d.ProgramPage(PageAddr(0, 0, 0), 1, randomPageData(2), nil)
	d.Erase(0)
	if _, _, err := d.ReadPage(PageAddr(0, 0, 0)); err == nil {
		t.Fatal("payload survived erase")
	}
}

func TestWearCorruptsExactlyBitErrors(t *testing.T) {
	d := New(Config{Blocks: 1, InitialMode: wear.MLC, Seed: 3, WearAcceleration: 5000})
	data := randomPageData(3)
	// Age the block, then store and read back.
	for i := 0; i < 40; i++ {
		if _, err := d.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	a := PageAddr(0, 0, 0)
	if _, err := d.ProgramPage(a, 9, data, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	buf, res, err := d.ReadPage(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors == 0 {
		t.Skip("device not worn enough to corrupt; acceleration too low")
	}
	flipped := 0
	for i := range buf.Data {
		b := buf.Data[i] ^ data[i]
		for ; b != 0; b &= b - 1 {
			flipped++
		}
	}
	if b := buf.Spare[0] ^ 0xAA; b != 0 {
		for ; b != 0; b &= b - 1 {
			flipped++
		}
	}
	if flipped != res.BitErrors {
		t.Fatalf("flipped %d bits, device reported %d", flipped, res.BitErrors)
	}
	// Failures must be consistent: re-reading the same worn page
	// yields the identical corruption ("fail consistently", §5.2.1).
	buf2, _, _ := d.ReadPage(a)
	if !bytes.Equal(buf.Data, buf2.Data) || !bytes.Equal(buf.Spare, buf2.Spare) {
		t.Fatal("wear corruption not deterministic across reads")
	}
}
