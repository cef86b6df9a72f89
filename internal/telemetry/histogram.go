package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 latency buckets. Bucket 0 holds
// sub-microsecond durations; bucket i (i > 0) holds durations in
// [2^(i-1), 2^i) microseconds. Bucket 39 tops out above 2^38 µs ≈ 76 hours,
// far beyond any single span or query.
const histBuckets = 40

// Histogram is a fixed-bucket log2 latency histogram. Observe costs one
// bit-length computation and three atomic adds — no floating point and no
// allocation — so it is safe to call from every pipeline worker on every
// solver query. Quantile estimation (report time only) returns the upper
// bound of the bucket containing the requested rank, an upward-biased
// estimate with at most 2x relative error, which is plenty to rank stages
// and spot tail blowups.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sumUS  atomic.Int64
	maxUS  atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(us))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Observe records one duration. Safe for concurrent use.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// NumBuckets is the number of fixed log2 buckets, for consumers exporting
// the raw bucket counts (the /metrics Prometheus histogram rendering).
const NumBuckets = histBuckets

// Buckets returns a copy of the per-bucket counts. Bucket 0 holds
// sub-microsecond observations; bucket i (i > 0) holds [2^(i-1), 2^i) µs;
// the last bucket additionally absorbs everything past its lower edge.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// BucketUpperUS returns the inclusive upper edge of bucket i in microseconds
// (durations are truncated to µs before bucketing, so the edge is exact).
// The last bucket is unbounded and returns -1.
func BucketUpperUS(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= histBuckets-1:
		return -1
	default:
		return (int64(1) << uint(i)) - 1
	}
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sumUS.Load()) * time.Microsecond
}

// Max returns the largest observed duration (at microsecond granularity).
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.maxUS.Load()) * time.Microsecond
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the bucket containing the ceil(q*count)-th observation,
// clamped to the observed maximum. It returns 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i == histBuckets-1 {
				// The top bucket is unbounded; its finite "edge" would
				// understate any saturating observation.
				return h.Max()
			}
			var upper int64
			if i > 0 {
				upper = (int64(1) << uint(i)) - 1
			}
			if max := h.maxUS.Load(); upper > max {
				upper = max
			}
			return time.Duration(upper) * time.Microsecond
		}
	}
	return h.Max()
}

// Quantiles is the (p50, p95, p99) triple every latency table reports.
func (h *Histogram) Quantiles() (p50, p95, p99 time.Duration) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// Summary is the histogram as one latency distribution row: count, total
// (BusyUS) and the p50/p95/p99 estimates, all in microseconds.
func (h *Histogram) Summary(name string) StageCount {
	p50, p95, p99 := h.Quantiles()
	return StageCount{Name: name, Count: h.Count(), BusyUS: h.sumUS.Load(),
		P50US: p50.Microseconds(), P95US: p95.Microseconds(), P99US: p99.Microseconds()}
}
