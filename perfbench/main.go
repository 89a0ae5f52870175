// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the SPI stack in a single process over real TCP on the host
// loopback interface, checks every reply, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) by name and unit. The
// last line of standard output is one JSON object with the results.
//
//	go run . -workload packed -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/trace"
)

// metric is one named result.
type metric struct {
	name  string
	value float64
	unit  string
}

// hardLimit bounds a run's wall time whatever its flags say.
const hardLimit = 150 * time.Second

// callers is the number of closed-loop callers. One caller leaves a core
// of a 2-core box free: with two, every workload keeps both cores busy,
// host interference lands directly on the timed path, and run-to-run
// spreads of calls_per_s and latency grow from about 0.1 to about 0.25.
// On single-secure about 1% of calls then also stall for ~4 ms waiting to
// be scheduled, right at p99.
const callers = 1

func main() {
	workloadName := flag.String("workload", "packed", "workload: packed, single-secure or gateway-scatter")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "how long to keep running rounds of fixed work")
	traceFlag := flag.Int("trace", 0, "1 runs traced rounds and prints per-layer metrics")
	flag.Parse()

	w, err := lookupWorkload(*workloadName)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	nproc := runtime.NumCPU()
	cfg := runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		callers: callers, connCap: nproc,
		traceDir: filepath.Join(".bench_build", "traces"),
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, *traceFlag)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s transport=\"loopback TCP\" callers=%d conn_cap_per_tier=%d closed_loop=true\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), cfg.callers, cfg.connCap)

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res.json())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// result is what a run reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
}

func (r *result) json() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// run repeats rounds of the workload's fixed work for about cfg.seconds,
// after one discarded warm-up round. A traced run alternates
// untraced and traced rounds, ending on a traced one.
func run(cfg runConfig, log io.Writer) (*result, error) {
	if cfg.callers > runtime.NumCPU() {
		return nil, fmt.Errorf("%d callers exceed nproc %d", cfg.callers, runtime.NumCPU())
	}
	in := newInputs(cfg.seed)
	var tr *trace.Tracer
	if cfg.trace {
		envs := cfg.w.envelopes
		if cfg.envelopes > 0 {
			envs = cfg.envelopes
		}
		// Room for every span of one timed phase: per envelope the
		// benchmark's own, three client, two gateway and two wsse spans,
		// three server spans per backend envelope, and an app and a
		// handler span per entry (46 for a gateway-scatter envelope).
		tr = trace.New(envs*(12+3*cfg.w.batch) + 4096)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	res := &result{correct: true}
	var untraced, traced []*roundResult
	for round := 0; ; round++ {
		isTraced := cfg.trace && round%2 == 0 && round > 0
		var rt *trace.Tracer
		if isTraced {
			rt = tr
		}
		roundStart := time.Now()
		r, err := runRound(cfg, in, round, rt)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.attempted += r.attempted
		res.failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(log, "round %d: first failed call: %v\n", round, r.firstErr)
		}
		kind := "warm-up"
		switch {
		case round == 0:
		case isTraced:
			kind = "traced"
			traced = append(traced, r)
		default:
			kind = "untraced"
			untraced = append(untraced, r)
		}
		fmt.Fprintf(log, "round %d %s: setup=%.2fms calls=%d wall=%.3fs calls_per_s=%.0f p50=%.0fus p99=%.0fus failed=%d\n",
			round, kind, ms(r.setup), r.calls, r.wall.Seconds(), r.callsPerSec(), us(pct(r.lat, 0.5)), us(pct(r.lat, 0.99)), r.failed)
		// Stop once another round of the same length would overrun the
		// deadline, so a run lasts about cfg.seconds.
		now := time.Now()
		enough := len(untraced) >= 1 && (!cfg.trace || len(traced) >= 1 && len(traced) == len(untraced))
		if enough && (now.Add(now.Sub(roundStart)).After(deadline) || now.Sub(start) > hardLimit/2) {
			break
		}
		if now.Sub(start) > hardLimit {
			return nil, fmt.Errorf("run exceeded %v before collecting enough rounds", hardLimit)
		}
	}
	if res.failed > 0 {
		res.correct = false
	}
	failedRatio := float64(res.failed) / float64(res.attempted)
	if cfg.trace {
		res.metrics = layerMetrics(untraced, traced)
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.tsv", cfg.w.name, cfg.seed))
			if err := writeSpans(path, traced); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "spans of %d traced rounds written to %s\n", len(traced), path)
		}
	} else {
		res.metrics = endToEnd(untraced)
	}
	var lat int
	for _, r := range untraced {
		lat += len(r.lat)
	}
	fmt.Fprintf(log, "rounds untraced=%d traced=%d latency_samples=%d attempted=%d failed=%d\n",
		len(untraced), len(traced), lat, res.attempted, res.failed)
	fmt.Fprintf(log, "metric failed_ratio %.6g ratio\n", failedRatio)
	for _, m := range res.metrics {
		fmt.Fprintf(log, "metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
	return res, nil
}

// endToEnd computes the user-visible metrics over the untraced rounds,
// each the median of its per-round values. Latency percentiles are taken
// per round (every round has at least 1000 exchanges, so at least ten
// beyond its p99), which keeps one disturbed round from owning the tail.
func endToEnd(rounds []*roundResult) []metric {
	latPct := func(p float64) float64 {
		return medianOf(rounds, func(r *roundResult) float64 { return us(pct(r.lat, p)) })
	}
	perCall := func(f func(r *roundResult) float64) float64 {
		return medianOf(rounds, func(r *roundResult) float64 { return f(r) / float64(r.calls) })
	}
	return []metric{
		{"calls_per_s", medianOf(rounds, (*roundResult).callsPerSec), "calls/s"},
		{"latency_p50_us", latPct(0.50), "us"},
		{"latency_p99_us", latPct(0.99), "us"},
		{"cpu_us_per_call", perCall(func(r *roundResult) float64 { return us(r.cpu) }), "us"},
		{"allocs_per_call", perCall(func(r *roundResult) float64 { return float64(r.mallocs) }), "allocs"},
		{"live_heap_mib", medianOf(rounds, func(r *roundResult) float64 { return float64(r.liveHeap) / (1 << 20) }), "MiB"},
		{"scrape_ms", medianOf(rounds, func(r *roundResult) float64 { return ms(r.scrape) }), "ms"},
		{"setup_s", medianOf(rounds, func(r *roundResult) float64 { return r.setup.Seconds() }), "s"},
	}
}

func (r *roundResult) callsPerSec() float64 { return float64(r.calls) / r.wall.Seconds() }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct is the nearest-rank p-quantile of unsorted samples (0 when empty).
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianOf(rounds []*roundResult, f func(r *roundResult) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}

func medianDur(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(median(vals))
}
