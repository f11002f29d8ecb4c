package core

import (
	"bytes"
	"errors"
	"testing"

	"flashdc/internal/envelope"
	"flashdc/internal/obs"
)

// TestOpenFresh: a nil reader is NewCache with a report.
func TestOpenFresh(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 7
	c, rep, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStart || rep.Err != nil {
		t.Fatalf("fresh open is not a cold start: %+v", rep)
	}
	c.Insert(42)
	if !c.Contains(42) {
		t.Fatal("fresh cache unusable")
	}
}

// TestOpenImage: a clean image restores, matching loadMetadata.
func TestOpenImage(t *testing.T) {
	cfg, img := savedImage(t)
	c, rep, err := Open(cfg, bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStart {
		t.Fatalf("clean image cold-started: %+v", rep)
	}
	want, err := loadMetadata(cfg, bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if c.ValidPages() != want.ValidPages() || c.ValidPages() == 0 {
		t.Fatalf("Open restored %d pages, loadMetadata %d", c.ValidPages(), want.ValidPages())
	}
}

// TestOpenCorruptImage: without WithRecovery corruption is an error
// wrapping ErrCorruptMetadata; with it, a cold start plus report. An
// image in an older format version counts as corrupt.
func TestOpenCorruptImage(t *testing.T) {
	cfg, img := savedImage(t)
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	ck, err := decodeEnvelope(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := envelope.Write(&v3, persistMagic, 3, ck); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"flipped byte", flipped},
		{"format v3", v3.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, rep, err := Open(cfg, bytes.NewReader(tc.img))
			if err == nil || !errors.Is(err, ErrCorruptMetadata) {
				t.Fatalf("want ErrCorruptMetadata, got %v", err)
			}
			if c != nil || rep.Err == nil {
				t.Fatalf("failed strict open must return nil cache and a cause, got %v / %+v", c, rep)
			}

			c, rep, err = Open(cfg, bytes.NewReader(tc.img), WithRecovery())
			if err != nil {
				t.Fatalf("recovering open must not fail: %v", err)
			}
			if !rep.ColdStart || !errors.Is(rep.Err, ErrCorruptMetadata) {
				t.Fatalf("want cold-start report wrapping ErrCorruptMetadata: %+v", rep)
			}
			if c.ValidPages() != 0 {
				t.Fatal("cold start must be empty")
			}
			c.Insert(9)
			if !c.Contains(9) {
				t.Fatal("cold-started cache unusable")
			}
		})
	}
}

// TestOpenWithObserver: the observer attaches on every path and the
// first trace event reports how the cache came up.
func TestOpenWithObserver(t *testing.T) {
	cfg, img := savedImage(t)
	for _, tc := range []struct {
		name string
		r    *bytes.Reader
		opts []OpenOption
		how  string
	}{
		{"fresh", nil, nil, "fresh"},
		{"image", bytes.NewReader(img), nil, "image"},
		{"cold", bytes.NewReader([]byte("junk")), []OpenOption{WithRecovery()}, "cold_start"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New(obs.Options{Metrics: true, Trace: true})
			opts := append([]OpenOption{WithObserver(o)}, tc.opts...)
			var c *Cache
			var err error
			if tc.r == nil {
				c, _, err = Open(cfg, nil, opts...)
			} else {
				c, _, err = Open(cfg, tc.r, opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			evs := o.Trace.Events()
			if len(evs) != 1 || evs[0].Kind != obs.KindOpen || evs[0].To != tc.how {
				t.Fatalf("want one open event with to=%q, got %+v", tc.how, evs)
			}
			if c.Observer() != o {
				t.Fatal("observer not attached")
			}
		})
	}
}

// TestOpenObserverCollectsCacheCounters: the attached collector samples
// the cache's stats into a snapshot.
func TestOpenObserverCollectsCacheCounters(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 11
	o := obs.New(obs.Options{Metrics: true})
	c, _, err := Open(cfg, nil, WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < 500; lba++ {
		c.Insert(lba)
	}
	c.Read(1)
	o.Finish()
	snaps := o.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("want one final snapshot, got %d", len(snaps))
	}
	s := snaps[0]
	if s.Counter("cache_fills_total") == 0 {
		t.Fatalf("collector missed fills: %+v", s)
	}
	if s.Gauge("cache_valid_pages") == 0 || s.Gauge("cache_capacity_pages") == 0 {
		t.Fatalf("collector missed gauges: %+v", s)
	}
	if s.Counter("nand_programs_total") == 0 {
		t.Fatalf("device collector missed programs: %+v", s)
	}
}

// TestOpenDisabledObserverIsFree: WithObserver(nil) and a disabled
// observer both leave the cache unobserved.
func TestOpenDisabledObserverIsFree(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	if c, _, err := Open(cfg, nil, WithObserver(nil)); err != nil || c.Observer() != nil {
		t.Fatalf("nil observer must not attach: %v %v", c.Observer(), err)
	}
	off := obs.New(obs.Options{})
	if c, _, err := Open(cfg, nil, WithObserver(off)); err != nil || c.Observer() != nil {
		t.Fatalf("disabled observer must not attach: %v %v", c.Observer(), err)
	}
}
