package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 ||
		s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot not all-zero: %+v", s)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	samples := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond,
		300 * time.Microsecond, 400 * time.Microsecond}
	for _, d := range samples {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4", s.Count)
	}
	if want := 1000 * time.Microsecond; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
	if want := 250 * time.Microsecond; s.Mean != want {
		t.Errorf("Mean = %v, want %v", s.Mean, want)
	}
	if s.Min != 100*time.Microsecond {
		t.Errorf("Min = %v, want 100µs", s.Min)
	}
	if s.Max != 400*time.Microsecond {
		t.Errorf("Max = %v, want 400µs", s.Max)
	}
}

func TestHistogramZeroSampleMin(t *testing.T) {
	// A genuine zero-duration sample must register as Min = 0, which the
	// min-as-ns+1 encoding has to distinguish from "no samples".
	var h Histogram
	h.Observe(0)
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Min != 0 {
		t.Errorf("Min = %v, want 0", s.Min)
	}
	if s.Count != 2 {
		t.Errorf("Count = %d, want 2", s.Count)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("negative sample not clamped to zero: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 100 samples at ~1ms and one outlier at ~100ms: P50 must stay in the
	// 1ms bucket (upper bound within 2x), P99+ must see the outlier region.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	if s.P50 < time.Millisecond || s.P50 > 2*time.Millisecond {
		t.Errorf("P50 = %v, want within [1ms, 2ms]", s.P50)
	}
	if s.P99 > 2*time.Millisecond {
		t.Errorf("P99 = %v, want <= 2ms (outlier is past the 99th rank)", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", s.Max)
	}
}

func TestHistogramQuantileClampedToMax(t *testing.T) {
	// A single sample: every quantile is that sample's bucket, clamped to
	// the observed max rather than the bucket's theoretical upper bound.
	var h Histogram
	h.Observe(3 * time.Millisecond)
	s := h.Snapshot()
	for name, q := range map[string]time.Duration{"P50": s.P50, "P95": s.P95, "P99": s.P99} {
		if q != 3*time.Millisecond {
			t.Errorf("%s = %v, want clamped to max 3ms", name, q)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("Count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Min != 0 || s.Max != 999*time.Microsecond {
		t.Errorf("Min/Max = %v/%v, want 0/999µs", s.Min, s.Max)
	}
}

func TestGaugeNilSafe(t *testing.T) {
	var g *Gauge
	g.Set(5)
	if g.Add(3) != 0 || g.Load() != 0 || g.Peak() != 0 {
		t.Error("nil gauge methods must be no-ops returning zero")
	}
}

func TestGaugePeakTracking(t *testing.T) {
	g := &Gauge{}
	g.Set(3)
	g.Set(10)
	g.Set(4)
	if g.Load() != 4 {
		t.Errorf("Load = %d, want 4", g.Load())
	}
	if g.Peak() != 10 {
		t.Errorf("Peak = %d, want 10", g.Peak())
	}
	if n := g.Add(8); n != 12 {
		t.Errorf("Add = %d, want 12", n)
	}
	if g.Peak() != 12 {
		t.Errorf("Peak after Add = %d, want 12", g.Peak())
	}
}

// The log-linear digest against the exact one: on seeded log-uniform
// samples from 100ns to 100ms, every quantile is within 12.5% of
// Summarize's nearest-rank value and never below it, and the aggregates
// are exact.
func TestHistogramSummaryMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lo, hi := math.Log(100), math.Log(float64(100*time.Millisecond))
	for _, n := range []int{1, 2, 3, 7, 10, 99, 100, 1000, 10_000, 100_000} {
		var h Histogram
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
			h.Observe(samples[i])
		}
		got, want := h.Summary(), Summarize(samples)
		if got.Count != want.Count || got.Total != want.Total || got.Min != want.Min ||
			got.Max != want.Max || got.Mean != want.Mean {
			t.Errorf("n=%d: aggregates %+v, want %+v", n, got, want)
		}
		for _, q := range []struct {
			name      string
			got, want time.Duration
		}{{"P50", got.P50, want.P50}, {"P90", got.P90, want.P90}, {"P99", got.P99, want.P99}} {
			if q.got < q.want || q.got-q.want > q.want/8 {
				t.Errorf("n=%d: %s = %v, exact %v (want within +12.5%%)", n, q.name, q.got, q.want)
			}
		}
	}
}

// Every bucket is contiguous with the next, maps its own bounds back to
// itself, and is no wider than an eighth of its lower bound (the source of
// the 12.5% quantile bound). The whole histogram fits in 4 KiB.
func TestHistogramBucketLayout(t *testing.T) {
	lower := time.Duration(0)
	for i := 0; i < numBuckets; i++ {
		upper := bucketUpper(i)
		if bucketOf(uint64(lower)) != i || bucketOf(uint64(upper)) != i {
			t.Fatalf("bucket %d = [%d, %d] does not map back to itself", i, lower, upper)
		}
		if lower >= subBuckets && upper-lower >= lower/subBuckets {
			t.Fatalf("bucket %d = [%d, %d] wider than 1/%d of its lower bound", i, lower, upper, subBuckets)
		}
		lower = upper + 1
	}
	if top := bucketUpper(numBuckets - 1); top != math.MaxInt64 {
		t.Errorf("top bucket ends at %d, want math.MaxInt64", top)
	}
	if size := unsafe.Sizeof(Histogram{}); size > 4096 {
		t.Errorf("Histogram is %d bytes, want <= 4096", size)
	}
}

// Recording and digesting never allocate.
func TestHistogramNoAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Errorf("Observe allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Summary() }); n != 0 {
		t.Errorf("Summary allocates %.0f times", n)
	}
}
