package core

import (
	"bytes"
	"testing"
)

// FuzzLoadMetadata asserts the recovery contract over arbitrary bytes:
// loadMetadata never panics, and when it does accept an input, the
// resulting cache passes the full integrity audit (every mapping in
// range and consistent) — i.e. corruption is either rejected or
// impossible, never silent. The config is the 4-block minimum so each
// execution is cheap.
func FuzzLoadMetadata(f *testing.F) {
	cfg := DefaultConfig(testMB)
	cfg.Seed = 97
	c := New(cfg)
	for lba := int64(0); lba < 300; lba++ {
		c.Insert(lba)
		if lba%3 == 0 {
			c.Write(1000 + lba)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:persistHeaderSize])
	f.Add([]byte(persistMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := loadMetadata(cfg, bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("error return carried a cache")
			}
			return
		}
		if got == nil {
			t.Fatal("nil cache without error")
		}
		if ierr := got.CheckIntegrity(); ierr != nil {
			t.Fatalf("accepted image built an inconsistent cache: %v", ierr)
		}
	})
}
