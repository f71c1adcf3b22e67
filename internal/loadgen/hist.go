package loadgen

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram with log-spaced bucket
// boundaries, safe for concurrent Record. Memory is constant (one counter
// per bucket, no per-sample storage), so an open-loop driver can record
// millions of requests without the measurement perturbing the workload.
//
// Bucket i covers (bound[i-1], bound[i]] with bound[i] = min·growth^i;
// values at or below min land in bucket 0 and values above max in a
// dedicated overflow bucket. Quantile returns the upper bound of the bucket
// containing the requested rank, so reported quantiles are conservative
// (never under the true value) with relative error bounded by the growth
// factor — ~12% at the default 20 buckets per decade.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; len = buckets
	counts []atomic.Int64  // len(bounds)+1; last is overflow
	total  atomic.Int64
}

// NewHistogram returns a histogram covering [min, max] with perDecade
// log-spaced buckets per factor of 10. It panics on a non-positive range
// or ordering.
func NewHistogram(min, max time.Duration, perDecade int) *Histogram {
	if min <= 0 || max <= min || perDecade < 1 {
		panic(fmt.Sprintf("loadgen: bad histogram shape [%v, %v] x%d", min, max, perDecade))
	}
	growth := math.Pow(10, 1/float64(perDecade))
	var bounds []time.Duration
	b := float64(min)
	for time.Duration(b) < max {
		bounds = append(bounds, time.Duration(b))
		b *= growth
	}
	bounds = append(bounds, max)
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// NewLatencyHistogram returns the harness's standard shape: 1µs to 60s at
// 20 buckets per decade (~135 buckets, ~12% worst-case quantile error) —
// wide enough that a request stalled behind a long cold build still lands
// in a bucket instead of the overflow bin.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(time.Microsecond, 60*time.Second, 20)
}

// Record adds one observation. Concurrency-safe.
func (h *Histogram) Record(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })
	h.counts[i].Add(1) // i == len(bounds) is the overflow bucket
	h.total.Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Quantile returns the upper bound of the bucket holding the q-quantile
// (0 < q <= 1) of the recorded observations, or 0 when empty. Overflowed
// observations report the histogram's max bound — by then the number is
// "off the scale", which for a latency SLO reads the right way. A q
// outside (0, 1] panics, like a bad histogram shape: there is no
// conservative answer to return for it.
func (h *Histogram) Quantile(q float64) time.Duration {
	if !(q > 0 && q <= 1) { // the negation also rejects NaN
		panic(fmt.Sprintf("loadgen: quantile %v outside (0, 1]", q))
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	// The q-quantile's rank is the smallest integer covering a q fraction
	// of the samples: ceil(q·total). Truncating instead would floor the
	// rank — p99 of 10 samples would read the 9th-ranked bucket and
	// under-report the tail, breaking the "never under the true value"
	// guarantee above.
	rank := int64(math.Ceil(q * float64(total)))
	if rank > total { // float round-up past the top at q == 1
		rank = total
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Overflow returns how many observations exceeded the histogram's range.
func (h *Histogram) Overflow() int64 {
	return h.counts[len(h.counts)-1].Load()
}

// Bounds returns the bucket upper bounds (tests assert the log spacing).
func (h *Histogram) Bounds() []time.Duration {
	out := make([]time.Duration, len(h.bounds))
	copy(out, h.bounds)
	return out
}
