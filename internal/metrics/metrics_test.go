package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySummary(t *testing.T) {
	var h Histogram
	for name, s := range map[string]Summary{"Summarize": Summarize(nil), "Histogram": h.Summary()} {
		if s != (Summary{}) {
			t.Errorf("%s: empty summary = %+v", name, s)
		}
		if s.String() != "no samples" {
			t.Errorf("%s: String = %q", name, s.String())
		}
	}
}

func TestBasicStats(t *testing.T) {
	var samples []time.Duration
	for _, ms := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		samples = append(samples, time.Duration(ms)*time.Millisecond)
	}
	s := Summarize(samples)
	if s.Count != 10 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 10*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 5500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 != 5*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.Total != 55*time.Millisecond {
		t.Errorf("total = %v", s.Total)
	}
}

// Recording goroutines race a reader taking digests: every digest must be
// internally ordered and the final one must see every sample.
func TestConcurrentRecording(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if s := h.Summary(); s.Count > 0 && !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
				t.Errorf("unordered digest under concurrent recording: %+v", s)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Summary().Count; got != 1000 {
		t.Errorf("count = %d", got)
	}
}

func TestMillis(t *testing.T) {
	if got := Millis(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("Millis = %v", got)
	}
}

// Property: percentiles are ordered and bounded by min/max.
func TestQuickPercentileInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.Count == n
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if got := c.Load(); got != 8005 {
		t.Errorf("Load = %d, want 8005", got)
	}
}

func TestResilienceSnapshot(t *testing.T) {
	var r Resilience
	r.Retries.Inc()
	r.Retries.Inc()
	r.Timeouts.Inc()
	r.Shed.Add(3)
	s := r.Snapshot()
	if s.Retries != 2 || s.Timeouts != 1 || s.Cancellations != 0 || s.Shed != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	want := "retries=2 timeouts=1 cancellations=0 shed=3"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
}
