// Package metrics provides the latency and event bookkeeping of the SPI
// stack. Histogram is the one latency primitive for anything that records
// without end (server phases and operations, trace stages, load tools): a
// fixed-size, lock-free bucket array whose digest costs the same whatever
// it has seen. Summarize digests a finite sample set exactly, matching the
// measurements the paper reports (run time in milliseconds per
// configuration, averaged over repeated runs). Counter, Gauge, StageIO and
// Resilience are the event counters the client/server failure and encode
// paths feed.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for
// concurrent use. The zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Resilience groups the failure-handling counters shared by the client
// and server resilience layers. Embed one and count into its fields; take
// a Snapshot for reporting. The zero value is ready.
type Resilience struct {
	// Retries counts retry attempts made after a failed exchange.
	Retries Counter
	// Timeouts counts work abandoned because a deadline expired: expired
	// call/batch contexts on the client, per-item or per-operation
	// deadline faults on the server.
	Timeouts Counter
	// Cancellations counts work abandoned because a context was cancelled
	// before its deadline.
	Cancellations Counter
	// Shed counts requests rejected at admission because the application
	// stage queue stayed full past the admission timeout.
	Shed Counter
}

// ResilienceSummary is a point-in-time copy of a Resilience counter set.
type ResilienceSummary struct {
	// Retries is the number of retry attempts.
	Retries int64
	// Timeouts is the number of deadline expirations.
	Timeouts int64
	// Cancellations is the number of context cancellations.
	Cancellations int64
	// Shed is the number of admission rejections.
	Shed int64
}

// Snapshot copies the current counter values.
func (r *Resilience) Snapshot() ResilienceSummary {
	return ResilienceSummary{
		Retries:       r.Retries.Load(),
		Timeouts:      r.Timeouts.Load(),
		Cancellations: r.Cancellations.Load(),
		Shed:          r.Shed.Load(),
	}
}

// String formats the summary compactly for experiment logs.
func (s ResilienceSummary) String() string {
	return fmt.Sprintf("retries=%d timeouts=%d cancellations=%d shed=%d",
		s.Retries, s.Timeouts, s.Cancellations, s.Shed)
}

// StageIO accumulates the byte and time volume of one pipeline stage
// (e.g. response encoding), cheap enough for per-message hot paths: two
// atomic adds per observation, no locks, no samples retained. The zero
// value is ready.
type StageIO struct {
	bytes atomic.Int64
	nanos atomic.Int64
}

// Observe adds one stage execution that processed n bytes in d.
func (s *StageIO) Observe(n int, d time.Duration) {
	s.bytes.Add(int64(n))
	s.nanos.Add(int64(d))
}

// Snapshot copies the current totals.
func (s *StageIO) Snapshot() StageIOSummary {
	return StageIOSummary{Bytes: s.bytes.Load(), Ns: s.nanos.Load()}
}

// StageIOSummary is a point-in-time copy of a StageIO counter pair.
type StageIOSummary struct {
	// Bytes is the total payload volume the stage processed.
	Bytes int64 `json:"bytes"`
	// Ns is the total time the stage spent, in nanoseconds.
	Ns int64 `json:"ns"`
}

// String formats the summary compactly for experiment logs.
func (s StageIOSummary) String() string {
	return fmt.Sprintf("bytes=%d ns=%d", s.Bytes, s.Ns)
}

// Summary is a statistical digest of a set of duration samples, as
// computed exactly by Summarize or estimated by Histogram.Summary.
type Summary struct {
	Count int
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Summarize computes a Summary over a sample set.
func Summarize(samples []time.Duration) Summary {
	s := Summary{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		s.Total += d
	}
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Mean = s.Total / time.Duration(len(sorted))
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile returns the p-quantile of an ascending sample set using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SummaryExport is the cross-process shape of a Summary: integer
// microseconds instead of time.Duration, so a snapshot survives a trip
// through a SOAP envelope or a JSON document without losing the unit. It
// is the per-operation latency digest the Admin control-plane service
// advertises and the exporter scrapes.
type SummaryExport struct {
	// Count is the number of samples behind the digest.
	Count int64 `json:"count"`
	// MeanUs, P50Us, P90Us, P99Us and MaxUs are the corresponding Summary
	// statistics in integer microseconds.
	MeanUs int64 `json:"mean_us"`
	P50Us  int64 `json:"p50_us"`
	P90Us  int64 `json:"p90_us"`
	P99Us  int64 `json:"p99_us"`
	MaxUs  int64 `json:"max_us"`
}

// Export converts the summary to its wire shape.
func (s Summary) Export() SummaryExport {
	return SummaryExport{
		Count:  int64(s.Count),
		MeanUs: int64(s.Mean / time.Microsecond),
		P50Us:  int64(s.P50 / time.Microsecond),
		P90Us:  int64(s.P90 / time.Microsecond),
		P99Us:  int64(s.P99 / time.Microsecond),
		MaxUs:  int64(s.Max / time.Microsecond),
	}
}

// Millis renders a duration as fractional milliseconds, the unit of the
// paper's figures.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// String formats the summary compactly for experiment logs.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.3fms min=%.3fms p50=%.3fms p90=%.3fms max=%.3fms",
		s.Count, Millis(s.Mean), Millis(s.Min), Millis(s.P50), Millis(s.P90), Millis(s.Max))
}
