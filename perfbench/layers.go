package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/xmldom"
)

// spanLevel places each stage in the call nesting, outermost first. Spans
// carry no parent pointer, so a span's children are taken to be the
// deeper-level spans of the same trace that overlap it in time.
var spanLevel = map[string]int{
	stageBatchSend: 0, stageCall: 0,
	trace.StageClientPack: 1, trace.StageClientSend: 1, trace.StageClientUnpack: 1,
	stageWSSESign: 2, trace.StageGatewayScatter: 2, trace.StageGatewayGather: 2,
	trace.StageGatewayBackend: 3,
	trace.StageProtocol:       4, trace.StageDispatch: 4, trace.StageAssemble: 4,
	stageWSSEVerify: 5, trace.StageApp: 5,
	stageHandler: 6,
}

// span is a recorded trace.Span in a compact, round-relative form.
type span struct {
	trace      uint64
	stage      string
	start, end time.Duration // since the start of the timed phase
	queue      time.Duration
}

func compactSpans(in []trace.Span, base time.Time) []span {
	out := make([]span, len(in))
	for i, s := range in {
		st := s.Start.Sub(base)
		out[i] = span{trace: s.Trace, stage: s.Stage, start: st, end: st + s.Service, queue: s.Queue}
	}
	return out
}

// selfTimes returns, per stage, the self time summed per trace (one value
// per traced envelope that has the stage): the span's duration minus the
// part of it that deeper spans of the same trace cover.
func selfTimes(spans []span) map[string][]time.Duration {
	byTrace := make(map[uint64][]span)
	for _, s := range spans {
		if s.trace != 0 {
			byTrace[s.trace] = append(byTrace[s.trace], s)
		}
	}
	out := make(map[string][]time.Duration)
	var ivs [][2]time.Duration
	for _, group := range byTrace {
		sums := make(map[string]time.Duration)
		for _, p := range group {
			lp, ok := spanLevel[p.stage]
			if !ok {
				continue
			}
			ivs = ivs[:0]
			for _, c := range group {
				if lc, ok := spanLevel[c.stage]; ok && lc > lp && c.start < p.end && c.end > p.start {
					ivs = append(ivs, [2]time.Duration{max(c.start, p.start), min(c.end, p.end)})
				}
			}
			sums[p.stage] += p.end - p.start - unionLen(ivs)
		}
		for stage, d := range sums {
			out[stage] = append(out[stage], d)
		}
	}
	return out
}

func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerMetrics turns the rounds of a traced run into the per-layer
// metrics: timings from the traced rounds, counts from the untraced ones,
// each the median over its rounds.
func layerMetrics(untraced, traced []*roundResult) []metric {
	var m []metric
	medT := func(f func(r *roundResult) float64) float64 { return medianOf(traced, f) }
	medU := func(f func(r *roundResult) float64) float64 { return medianOf(untraced, f) }
	self := make([]map[string][]time.Duration, len(traced))
	for i, r := range traced {
		self[i] = selfTimes(r.spans)
	}
	selfP50 := func(stage string) float64 {
		vals := make([]float64, len(traced))
		for i := range traced {
			vals[i] = us(pct(self[i][stage], 0.50))
		}
		return median(vals)
	}
	spanPct := func(stage string, p float64, queue bool) float64 {
		return medT(func(r *roundResult) float64 {
			var ds []time.Duration
			for _, s := range r.spans {
				if s.stage == stage {
					if queue {
						ds = append(ds, s.queue)
					} else {
						ds = append(ds, s.end-s.start)
					}
				}
			}
			return us(pct(ds, p))
		})
	}
	perEnv := func(r *roundResult) float64 { return float64(r.envs) }

	// core client
	m = append(m,
		metric{"client.pack_us", selfP50(trace.StageClientPack), "us"},
		metric{"client.send_us", selfP50(trace.StageClientSend), "us"},
		metric{"client.unpack_us", selfP50(trace.StageClientUnpack), "us"})
	// httpx, from the connection wrappers (writes from /proc/self/io)
	m = append(m,
		metric{"httpx.conns_opened", medU(func(r *roundResult) float64 { return float64(r.dials) }), "count"},
		metric{"httpx.bytes_per_call", medU(func(r *roundResult) float64 { return float64(r.rbytes) / float64(r.calls) }), "bytes"},
		metric{"httpx.writes_per_env", medU(func(r *roundResult) float64 {
			if r.syscw < 0 {
				return -1
			}
			return float64(r.syscw) / perEnv(r)
		}), "count"},
		metric{"httpx.reads_per_env", medU(func(r *roundResult) float64 { return float64(r.reads) / perEnv(r) }), "count"})
	// codec
	m = append(m,
		metric{"server.protocol_us", selfP50(trace.StageProtocol), "us"},
		metric{"server.assemble_us", selfP50(trace.StageAssemble), "us"},
		metric{"soap.decode_us_per_env", medT(func(r *roundResult) float64 { return decodeReplay(r.bodies) }), "us"})
	// core server
	m = append(m,
		metric{"server.dispatch_self_us", selfP50(trace.StageDispatch), "us"},
		metric{"server.parse_phase_p50_us", medU(func(r *roundResult) float64 { return us(r.srv.parseP50) }), "us"},
		metric{"server.dispatch_phase_p50_us", medU(func(r *roundResult) float64 { return us(r.srv.dispatchP50) }), "us"},
		metric{"server.encode_phase_p50_us", medU(func(r *roundResult) float64 { return us(r.srv.encodeP50) }), "us"},
		metric{"server.requests_per_env", medU(func(r *roundResult) float64 {
			return float64(r.srv.requests) / float64(r.srv.envelopes)
		}), "ratio"},
		metric{"server.item_faults", medU(func(r *roundResult) float64 { return float64(r.srv.itemFaults) }), "count"})
	// stage
	m = append(m,
		metric{"stage.queue_wait_p50_us", spanPct(trace.StageApp, 0.50, true), "us"},
		metric{"stage.queue_wait_p99_us", spanPct(trace.StageApp, 0.99, true), "us"},
		metric{"stage.occupancy", medT(func(r *roundResult) float64 {
			// Time-averaged Busy/Workers: application-stage service time
			// over worker capacity during the timed phase.
			var busy time.Duration
			for _, s := range r.spans {
				if s.stage == trace.StageApp {
					busy += s.end - s.start
				}
			}
			return float64(busy) / (float64(r.workers) * float64(r.wall))
		}), "ratio"},
		metric{"stage.rejected", medU(func(r *roundResult) float64 { return float64(r.srv.rejected) }), "count"})
	// services
	m = append(m, metric{"app.service_p50_us", spanPct(stageHandler, 0.50, false), "us"})
	// metrics, admin
	m = append(m,
		metric{"metrics.stats_ms", medU(func(r *roundResult) float64 { return ms(r.statsDur) }), "ms"},
		metric{"metrics.heap_bytes_per_env", medU(func(r *roundResult) float64 {
			return (float64(r.liveHeap) - float64(r.heapBase)) / perEnv(r)
		}), "bytes"},
		metric{"admin.getstats_bytes", medU(func(r *roundResult) float64 { return float64(r.scrapeBytes) }), "bytes"})
	// wsse
	m = append(m,
		metric{"wsse.verify_us_p50", medT(func(r *roundResult) float64 { return us(pct(r.verify, 0.50)) }), "us"},
		metric{"wsse.verify_us_first_decile", medT(func(r *roundResult) float64 {
			return us(pct(r.verify[:len(r.verify)/10], 0.50))
		}), "us"},
		metric{"wsse.verify_us_last_decile", medT(func(r *roundResult) float64 {
			return us(pct(r.verify[len(r.verify)-len(r.verify)/10:], 0.50))
		}), "us"},
		metric{"wsse.sign_us", medT(func(r *roundResult) float64 { return us(pct(r.sign, 0.50)) }), "us"})
	// diff cache
	m = append(m, metric{"diffcache.hit_ratio", medU(func(r *roundResult) float64 {
		if n := r.srv.diffHits + r.srv.diffMisses; n > 0 {
			return float64(r.srv.diffHits) / float64(n)
		}
		return 0
	}), "ratio"})
	// gateway
	m = append(m,
		metric{"gateway.scatter_us", selfP50(trace.StageGatewayScatter), "us"},
		metric{"gateway.backend_us_p50", spanPct(trace.StageGatewayBackend, 0.50, false), "us"},
		metric{"gateway.backend_us_p99", spanPct(trace.StageGatewayBackend, 0.99, false), "us"},
		metric{"gateway.gather_us", selfP50(trace.StageGatewayGather), "us"},
		metric{"gateway.backend_exchanges_per_env", medU(func(r *roundResult) float64 {
			if r.gw.envelopes == 0 {
				return 0
			}
			return float64(r.gw.exchanges) / float64(r.gw.envelopes)
		}), "ratio"},
		metric{"gateway.failovers", medU(func(r *roundResult) float64 { return float64(r.gw.failovers) }), "count"},
		metric{"gateway.degraded", medU(func(r *roundResult) float64 { return float64(r.gw.degraded) }), "count"})
	// trace
	cpsU := medU(func(r *roundResult) float64 { return r.callsPerSec() })
	cpsT := medT(func(r *roundResult) float64 { return r.callsPerSec() })
	m = append(m, metric{"trace.overhead_pct", (cpsU - cpsT) / cpsU * 100, "pct"})
	return m
}

// decodeReplay times soap.DecodeArena over captured request bodies and
// returns the median per-envelope decode time in microseconds.
func decodeReplay(bodies [][]byte) float64 {
	if len(bodies) == 0 {
		return 0
	}
	const passes = 20
	per := make([]time.Duration, 0, len(bodies))
	for _, b := range bodies {
		start := time.Now()
		for i := 0; i < passes; i++ {
			a := xmldom.AcquireArena()
			if _, err := soap.DecodeArena(bytes.NewReader(b), a); err != nil {
				xmldom.ReleaseArena(a)
				return -1
			}
			xmldom.ReleaseArena(a)
		}
		per = append(per, time.Since(start)/passes)
	}
	return us(pct(per, 0.50))
}

// writeSpans writes every traced round's spans as tab-separated lines.
func writeSpans(path string, rounds []*roundResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "round\ttrace\tstage\tstart_ns\tend_ns\tqueue_ns")
	for i, r := range rounds {
		for _, s := range r.spans {
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.trace, s.stage, s.start, s.end, s.queue)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
