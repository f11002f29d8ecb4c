package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram accumulates durations into logarithmic buckets (24 per
// decade) for percentile reporting without storing samples. The zero
// value is ready to use.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    Duration
	min    Duration
	max    Duration
}

// bucketsPerDecade controls resolution: each bucket spans a factor of
// 10^(1/24), so its relative width is about 10%.
const bucketsPerDecade = 24

var (
	// bucketLow[i] is the smallest duration in bucket i or above, so
	// an empty bucket shares the next one's bound (bucket 0 holds
	// d <= 0).
	bucketLow []Duration
	// bucketAtLen[n] is the bucket of 1<<(n-1), the smallest duration
	// with n significant bits: where bucketOf starts its scan.
	bucketAtLen [65]int
)

// init derives the bucket tables from the bucket mapping itself,
// 1 + floor(24*log10(d)) for positive d, so every boundary falls
// exactly where that float expression puts it. BucketFloor computes
// the boundaries the other way round (10^((i-1)/24)) and can differ
// from them by float rounding, so it is not used here.
func init() {
	logBucket := func(d Duration) int {
		return 1 + int(math.Log10(float64(d))*bucketsPerDecade)
	}
	top := logBucket(math.MaxInt64)
	bucketLow = make([]Duration, top+1)
	bucketLow[1] = 1
	for i := 2; i <= top; i++ {
		// logBucket is non-decreasing in d, and a bucket spans a
		// factor of 10^(1/24) < 1.125: the first duration past bucket
		// i-1 lies within lo*1.125+1 of bucket i-1's first.
		lo := bucketLow[i-1]
		hi := lo + min(lo/8+1, math.MaxInt64-lo)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if logBucket(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketLow[i] = lo
	}
	for n := 1; n < len(bucketAtLen); n++ {
		bucketAtLen[n] = logBucket(Duration(uint64(1) << (n - 1)))
	}
}

// bucketOf maps a duration to its bucket index without a logarithm: a
// factor of two spans log10(2)*24 < 8 buckets, so a short upward scan
// from the first bucket of d's bit length finds it.
func bucketOf(d Duration) int {
	if d <= 0 {
		return 0
	}
	i := bucketAtLen[bits.Len64(uint64(d))]
	for i+1 < len(bucketLow) && d >= bucketLow[i+1] {
		i++
	}
	return i
}

// BucketFloor returns the smallest duration mapping to bucket i.
func BucketFloor(i int) Duration {
	if i == 0 {
		return 0
	}
	return Duration(math.Pow(10, float64(i-1)/bucketsPerDecade))
}

// Observe records one sample.
func (h *Histogram) Observe(d Duration) {
	i := bucketOf(d)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds other's samples into h: afterwards h reports exactly
// what it would had it observed every sample of both histograms. Used
// to combine per-shard latency profiles into one report; merging is
// associative and commutative, so any fold order gives the same
// result. A nil or empty other is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the total of all samples.
func (h *Histogram) Sum() Duration { return h.sum }

// Counts returns the per-bucket sample counts, bucket i's floor (the
// smallest duration mapping to it) being BucketFloor(i). It lets
// observers re-bucket the profile; the slice is the histogram's own,
// so callers must not modify it, and it grows as samples arrive.
func (h *Histogram) Counts() []uint64 { return h.counts }

// Mean returns the average sample, zero when empty.
func (h *Histogram) Mean() Duration {
	if h.total == 0 {
		return 0
	}
	return Duration(uint64(h.sum) / h.total)
}

// Min and Max return the observed extremes (zero when empty).
func (h *Histogram) Min() Duration { return h.min }

// Max returns the largest observed sample.
func (h *Histogram) Max() Duration { return h.max }

// Quantile returns an approximation of the q-quantile, accurate to the
// bucket resolution (~10%). Every input has a defined result: an empty
// histogram yields 0 for any q, out-of-range quantiles clamp to the
// observed extremes (q <= 0 yields Min, q > 1 yields Max), and a
// histogram whose samples all landed in one bucket yields a value
// within [Min, Max] (exactly the sample when Min == Max).
func (h *Histogram) Quantile(q float64) Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return h.min
	}
	if q > 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// Return the geometric midpoint of the bucket, clamped
			// to the observed extremes.
			lo := BucketFloor(i)
			hi := BucketFloor(i + 1)
			mid := Duration(math.Sqrt(float64(lo+1) * float64(hi+1)))
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// String summarises the distribution. It never panics: an empty
// histogram formats as "histogram{empty}".
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95),
		h.Quantile(0.99), h.max)
	return b.String()
}
