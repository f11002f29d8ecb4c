package sim

import (
	"math"
	"testing"
)

// log10Bucket is the original bucket mapping, kept verbatim as the
// reference bucketOf must reproduce.
func log10Bucket(d Duration) int {
	if d <= 0 {
		return 0
	}
	return 1 + int(math.Log10(float64(d))*bucketsPerDecade)
}

// checkBucket fails the test if bucketOf(d) departs from the reference.
func checkBucket(t *testing.T, d Duration) {
	t.Helper()
	if got, want := bucketOf(d), log10Bucket(d); got != want {
		t.Fatalf("bucketOf(%d) = %d, log10 mapping gives %d", d, got, want)
	}
}

// TestBucketOfMatchesLog10 checks bucketOf against the log10 mapping at
// every bucket boundary and one nanosecond either side, across the
// whole positive int64 range, and around every power of two, where
// bucketOf's scan starts.
func TestBucketOfMatchesLog10(t *testing.T) {
	if top := log10Bucket(math.MaxInt64); len(bucketLow) != top+1 {
		t.Fatalf("%d buckets, want %d up to MaxInt64", len(bucketLow), top+1)
	}
	for _, d := range []Duration{math.MinInt64, -1, 0, 1, 2, 3, math.MaxInt64 - 1, math.MaxInt64} {
		checkBucket(t, d)
	}
	for i := 1; i < len(bucketLow); i++ {
		b := bucketLow[i]
		if i > 1 && log10Bucket(b-1) >= i {
			t.Fatalf("bucket %d starts at %d, but %d already maps to %d", i, b, b-1, log10Bucket(b-1))
		}
		checkBucket(t, b-1)
		checkBucket(t, b)
		if b < math.MaxInt64 {
			checkBucket(t, b+1)
		}
	}
	for n := 0; n < 63; n++ {
		p := Duration(1) << n
		checkBucket(t, p-1)
		checkBucket(t, p)
		checkBucket(t, p+1)
	}
	// BucketFloor's values (what Quantile and the hierarchy's latency
	// snapshots read) can sit a rounding step off the boundaries above;
	// probe them too.
	for i := 2; i < 200; i++ {
		if f := BucketFloor(i); f > 0 {
			checkBucket(t, f)
		}
	}
}

func FuzzBucketOf(f *testing.F) {
	for _, d := range []int64{0, 1, 999, 1 << 20, 3_600_000_000_000, math.MaxInt64, -5} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) {
		checkBucket(t, Duration(d))
		// Also probe just below and above d's bucket boundaries.
		if i := bucketOf(Duration(d)); i > 0 {
			checkBucket(t, bucketLow[i]-1)
			if i+1 < len(bucketLow) {
				checkBucket(t, bucketLow[i+1]-1)
			}
		}
	})
}

func TestObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64) // grow counts to every bucket once
	d := Duration(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d = d*7 + 3
		if d <= 0 {
			d = 1
		}
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call", allocs)
	}
}
