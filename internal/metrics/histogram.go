package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: log-linear, subBuckets linear sub-buckets per power of
// two. Bucket shift<<subBits + m, for m in [subBuckets, 2*subBuckets),
// holds [m<<shift, (m+1)<<shift); with shift 0 that is one exact bucket
// per value below 2*subBuckets nanoseconds, and buckets below subBuckets
// are the exact values 0..subBuckets-1. A bucket is therefore never wider
// than 1/subBuckets of its lower bound, which bounds the quantile error.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	// numBuckets covers every non-negative int64: the top bucket's shift
	// is 63-subBits-1.
	numBuckets = (63-subBits)*subBuckets + subBuckets
)

// bucketOf returns the bucket index of a nanosecond count.
func bucketOf(ns uint64) int {
	shift := bits.Len64(ns) - subBits - 1
	if shift < 0 {
		shift = 0
	}
	return shift<<subBits + int(ns>>uint(shift))
}

// bucketUpper returns the largest nanosecond count bucket i holds.
func bucketUpper(i int) time.Duration {
	shift := i>>subBits - 1
	if shift < 0 {
		shift = 0
	}
	m := uint64(i - shift<<subBits)
	return time.Duration((m+1)<<uint(shift) - 1)
}

// Histogram accumulates duration samples into fixed log-linear buckets
// (eight per power of two). It never allocates per sample and every
// operation is a handful of atomic operations, so it is safe to leave on a
// hot path: the server's phase and per-operation timings and the per-stage
// trace instrumentation all record into histograms on every hop. Count,
// sum, minimum and maximum are kept exactly; a quantile is the upper
// bound of the bucket holding the nearest-rank sample, clamped to the
// observed maximum, so it never under-reports and over-reports by less
// than 12.5%. A histogram takes under 4 KiB whatever it has recorded.
//
// The zero value is ready. Safe for concurrent use.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // nanoseconds + 1, so 0 means "no samples yet"
	max    atomic.Int64
}

// Observe adds one sample. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if (cur != 0 && cur <= ns+1) || h.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistogramSummary is a point-in-time digest of a Histogram. Quantiles are
// bucket upper bounds (at most 12.5% above the true value).
type HistogramSummary struct {
	Count int64
	Sum   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// histogramView is one consistent-enough read of a Histogram's state: the
// bucket counts plus the exact aggregates derived from them.
type histogramView struct {
	counts        [numBuckets]int64
	count         int64
	sum, min, max time.Duration
}

func (h *Histogram) view(v *histogramView) {
	for i := range h.counts {
		v.counts[i] = h.counts[i].Load()
		v.count += v.counts[i]
	}
	v.sum = time.Duration(h.sum.Load())
	if mn := h.min.Load(); mn > 0 {
		v.min = time.Duration(mn - 1)
	}
	v.max = time.Duration(h.max.Load())
}

// quantile returns the upper bound of the bucket containing the p-quantile
// sample (nearest rank), clamped to the observed maximum.
func (v *histogramView) quantile(p float64) time.Duration {
	rank := int64(p*float64(v.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range v.counts {
		if cum += c; cum >= rank {
			return min(bucketUpper(i), v.max)
		}
	}
	return v.max
}

func (v *histogramView) summary() Summary {
	s := Summary{Count: int(v.count), Total: v.sum}
	if v.count == 0 {
		return s
	}
	s.Mean = v.sum / time.Duration(v.count)
	s.Min, s.Max = v.min, v.max
	s.P50 = v.quantile(0.50)
	s.P90 = v.quantile(0.90)
	s.P99 = v.quantile(0.99)
	return s
}

// Summary digests the samples observed so far in the shape Summarize
// returns. Count, Total, Min, Max and Mean are exact; P50, P90 and P99
// are bucket estimates of Summarize's nearest-rank values (at most 12.5%
// above). The cost is a fixed walk over the buckets, whatever the number
// of samples.
func (h *Histogram) Summary() Summary {
	var v histogramView
	h.view(&v)
	return v.summary()
}

// Snapshot digests the samples observed so far, with P95 in place of P90.
func (h *Histogram) Snapshot() HistogramSummary {
	var v histogramView
	h.view(&v)
	s := v.summary()
	return HistogramSummary{Count: int64(s.Count), Sum: s.Total, Mean: s.Mean,
		Min: s.Min, Max: s.Max, P50: s.P50, P95: v.quantile(0.95), P99: s.P99}
}

// Gauge is a last-value metric (queue depth, worker count). All methods are
// nil-safe so a disabled observability layer can hand out nil gauges and
// callers pay only the nil check. The zero value is ready.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set records the current value, updating the running peak.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	for {
		cur := g.peak.Load()
		if cur >= n || g.peak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add adjusts the current value by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	n := g.v.Add(delta)
	for {
		cur := g.peak.Load()
		if cur >= n || g.peak.CompareAndSwap(cur, n) {
			return n
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Peak returns the largest value the gauge has held.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}
