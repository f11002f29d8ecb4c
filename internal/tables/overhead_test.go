package tables

import "testing"

func TestMetadataMatchesPaperFigures(t *testing.T) {
	// Section 3: "the memory overhead for a 32GB Flash is
	// approximately 360MB of DRAM".
	got := MetadataBytes(32 << 30)
	if got < 330<<20 || got > 390<<20 {
		t.Fatalf("32GB Flash metadata = %dMB, paper says ~360MB", got>>20)
	}
	// "The overhead of the four tables ... less than 2% of the Flash
	// size."
	for _, size := range []int64{256 << 20, 1 << 30, 32 << 30} {
		if ov := float64(MetadataBytes(size)) / float64(size); ov >= 0.02 || ov <= 0 {
			t.Fatalf("overhead for %dMB Flash = %.4f, want (0, 0.02)", size>>20, ov)
		}
	}
}

func TestMetadataScalesLinearly(t *testing.T) {
	small := MetadataBytes(1 << 30)
	big := MetadataBytes(4 << 30)
	ratio := float64(big) / float64(small)
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("metadata does not scale linearly: %v", ratio)
	}
}

func TestMetadataDegenerate(t *testing.T) {
	// A zero-size Flash has no pages or blocks to track: only the
	// fixed-size global table remains.
	if got := MetadataBytes(0); got != FGSTBytes {
		t.Fatalf("zero-size metadata = %d bytes, want FGSTBytes = %d", got, FGSTBytes)
	}
}
