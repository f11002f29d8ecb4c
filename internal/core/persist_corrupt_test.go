package core

import (
	"bytes"
	"errors"
	"testing"

	"flashdc/internal/envelope"
)

// savedImage builds a cache with non-trivial state and returns its
// metadata image.
func savedImage(t *testing.T) (Config, []byte) {
	t.Helper()
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 91
	c := New(cfg)
	driveMixed(c, 93, 20000, 3000, 0.3)
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, buf.Bytes()
}

// TestLoadMetadataRejectsTruncation is the regression for the silent
// corruption acceptance the raw-gob format allowed: a crash mid-write
// leaves a prefix of the image, and every such prefix must be rejected
// with the typed corruption error — never loaded as a wrong cache.
func TestLoadMetadataRejectsTruncation(t *testing.T) {
	cfg, img := savedImage(t)
	// Every cut inside the header and trailer, plus a spread of cuts
	// through the payload.
	cuts := []int{}
	for n := 0; n < persistHeaderSize+8 && n < len(img); n++ {
		cuts = append(cuts, n)
	}
	for n := persistHeaderSize + 8; n < len(img); n += len(img)/64 + 1 {
		cuts = append(cuts, n)
	}
	cuts = append(cuts, len(img)-1)
	for _, n := range cuts {
		c, err := loadMetadata(cfg, bytes.NewReader(img[:n]))
		if err == nil {
			t.Fatalf("image truncated to %d/%d bytes accepted", n, len(img))
		}
		if !errors.Is(err, ErrCorruptMetadata) {
			t.Fatalf("truncation to %d bytes: error %v not tagged ErrCorruptMetadata", n, err)
		}
		if c != nil {
			t.Fatalf("truncation to %d bytes returned a cache alongside the error", n)
		}
	}
}

// TestLoadMetadataRejectsBitFlips flips every bit of the envelope
// header and a spread of payload/trailer bytes: each single-bit
// corruption must be detected (magic, version and length checks for
// the header; CRC-32 for everything else).
func TestLoadMetadataRejectsBitFlips(t *testing.T) {
	cfg, img := savedImage(t)
	offsets := []int{}
	for off := 0; off < persistHeaderSize; off++ {
		offsets = append(offsets, off)
	}
	for off := persistHeaderSize; off < len(img); off += len(img)/64 + 1 {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, len(img)-4, len(img)-1) // CRC trailer
	for _, off := range offsets {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), img...)
			mut[off] ^= 1 << bit
			c, err := loadMetadata(cfg, bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped, image accepted", bit, off)
			}
			if !errors.Is(err, ErrCorruptMetadata) {
				t.Fatalf("flip at %d.%d: error %v not tagged ErrCorruptMetadata", off, bit, err)
			}
			if c != nil {
				t.Fatalf("flip at %d.%d returned a cache alongside the error", off, bit)
			}
		}
	}
}

func TestLoadMetadataRejectsSemanticGarbage(t *testing.T) {
	cfg, img := savedImage(t)
	// Re-encode the image with internally inconsistent table state:
	// decode the payload, corrupt it, and re-wrap with a VALID
	// envelope — only semantic validation can catch this class.
	corrupt := func(mutate func(*CacheCheckpoint)) error {
		ck, err := decodeEnvelope(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		mutate(ck)
		var buf bytes.Buffer
		if err := envelope.Write(&buf, persistMagic, persistVersion, ck); err != nil {
			t.Fatal(err)
		}
		_, err = loadMetadata(cfg, &buf)
		return err
	}
	cases := map[string]func(*CacheCheckpoint){
		"out-of-range region":  func(ck *CacheCheckpoint) { ck.Blocks[0].Region = 99 },
		"impossible state":     func(ck *CacheCheckpoint) { ck.Blocks[0].State = 200 },
		"negative erase count": func(ck *CacheCheckpoint) { ck.Device.Blocks[0].EraseCount = -1 },
		"runaway erase count":  func(ck *CacheCheckpoint) { ck.Device.Blocks[0].EraseCount = 1 << 30 },
		"valid-count mismatch": func(ck *CacheCheckpoint) { ck.Blocks[0].Valid += 3; ck.Blocks[0].Consumed += 3 },
		"oversized strength":   func(ck *CacheCheckpoint) { ck.Slots[0][0].Pages[0].Strength = 99 },
		"cursor out of range":  func(ck *CacheCheckpoint) { ck.Blocks[0].CursorSlot = 1000 },
	}
	for name, mutate := range cases {
		err := corrupt(mutate)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if !errors.Is(err, ErrCorruptMetadata) {
			t.Fatalf("%s: error %v not tagged ErrCorruptMetadata", name, err)
		}
	}
}

// TestRecoverMetadataColdStart: Open with WithRecovery loads a clean
// image warm and turns a corrupt one into a usable cold cache.
func TestRecoverMetadataColdStart(t *testing.T) {
	cfg, img := savedImage(t)

	// Clean image: loads warm, no report.
	c, rep, err := Open(cfg, bytes.NewReader(img), WithRecovery())
	if err != nil || rep.ColdStart || rep.Err != nil {
		t.Fatalf("clean image: err %v, report %+v", err, rep)
	}
	if c.ValidPages() == 0 {
		t.Fatal("warm load came back empty")
	}

	// Corrupt image: degraded path, usable cold cache.
	mut := append([]byte(nil), img...)
	mut[len(mut)/2] ^= 0x40
	c, rep, err = Open(cfg, bytes.NewReader(mut), WithRecovery())
	if err != nil {
		t.Fatalf("recovering open must not fail: %v", err)
	}
	if !rep.ColdStart {
		t.Fatal("corrupt image did not force a cold start")
	}
	if !errors.Is(rep.Err, ErrCorruptMetadata) {
		t.Fatalf("report error %v not tagged ErrCorruptMetadata", rep.Err)
	}
	if c == nil || c.ValidPages() != 0 {
		t.Fatal("cold start is not an empty cache")
	}
	// The cold cache must be fully operational.
	for lba := int64(0); lba < 500; lba++ {
		c.Insert(lba)
	}
	if c.ValidPages() == 0 {
		t.Fatal("cold-started cache cannot cache")
	}
	checkInvariants(t, c)
}
