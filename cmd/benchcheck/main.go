// Command benchcheck runs the key micro- and throughput benchmarks
// programmatically and writes a machine-readable JSON snapshot — the
// perf-trajectory guard. Each PR appends its snapshot (BENCH_prN.json) so
// regressions between PRs diff as numbers, not as vibes.
//
// Usage:
//
//	benchcheck                 # writes BENCH_pr12.json
//	benchcheck -out FILE.json  # custom path
//	benchcheck -benchtime 2s   # more stable numbers (default 1s)
//	benchcheck -baseline BENCH_pr3.json,BENCH_pr2.json -tolerance 10
//	                           # compare mode: exit non-zero when a
//	                           # benchmark regressed more than 10% in
//	                           # ns/op or allocs/op vs the baseline
//	                           # chain; each benchmark compares against
//	                           # the first file in the chain that has it,
//	                           # so benchmarks introduced mid-sequence
//	                           # keep their original baseline
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/msgcache"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/trace"
	"repro/internal/wsse"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the written snapshot.
type Report struct {
	GoVersion string   `json:"go_version"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := Result{
		Name:        name,
		N:           r.N,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if ns > 0 {
		res.OpsPerSec = 1e9 / ns
	}
	fmt.Printf("%-32s %12d ops %14.1f ns/op %10.0f ops/s %8d allocs/op\n",
		name, res.N, res.NsPerOp, res.OpsPerSec, res.AllocsPerOp)
	return res
}

func main() {
	testing.Init() // registers test.benchtime before we touch it
	out := flag.String("out", "BENCH_pr12.json", "output JSON path")
	benchtime := flag.Duration("benchtime", time.Second, "minimum run time per benchmark")
	baseline := flag.String("baseline", "", "comma-separated baseline chain to compare against, first file wins per benchmark (empty disables)")
	tolerance := flag.Float64("tolerance", 10, "allowed regression percent vs the baseline")
	flag.Parse()
	// testing.Benchmark honours the package-level benchtime flag.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: set benchtime: %v\n", err)
		os.Exit(1)
	}

	report := Report{Benchtime: benchtime.String()}
	add := func(r Result) { report.Results = append(report.Results, r) }

	// --- codec micro-benchmarks ---------------------------------------
	doc := sampleEnvelope(64)
	add(measure("soap/decode-64-entry", func(b *testing.B) {
		// The server's decode hot path: interned names, arena-backed tree,
		// arena recycled per request.
		a := xmldom.AcquireArena()
		defer xmldom.ReleaseArena(a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := soap.DecodeArena(bytes.NewReader(doc), a); err != nil {
				b.Fatal(err)
			}
			a.Reset()
		}
	}))
	add(measure("soap/decode-64-entry-heap", func(b *testing.B) {
		// The pre-arena buffered path, kept for the ablation delta.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := soap.Decode(bytes.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("soap/encode-64-entry", func(b *testing.B) {
		// The server's encode hot path: a pooled stream encoder writes the
		// envelope without intermediate buffers.
		env := buildEnvelope(64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := soap.NewStreamEncoder()
			if _, err := enc.EncodeEnvelope(env); err != nil {
				b.Fatal(err)
			}
			enc.Release()
		}
	}))
	add(measure("soap/encode-64-entry-dom", func(b *testing.B) {
		// The pre-streaming buffered path, kept for the ablation delta.
		env := buildEnvelope(64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := env.Encode(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("msgcache/render-hit", func(b *testing.B) {
		c := msgcache.New()
		params := []soapenc.Field{soapenc.F("message", "hello"), soapenc.F("count", int32(3))}
		if _, ok, err := c.Render("Echo", "urn:spi:Echo", "echo", params); err != nil || !ok {
			b.Fatalf("prime: ok=%v err=%v", ok, err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Render("Echo", "urn:spi:Echo", "echo", params); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("msgcache/render-to-hit", func(b *testing.B) {
		// The zero-alloc form: splice onto a pooled emitter instead of
		// returning a fresh byte slice. allocs/op here must stay 0.
		c := msgcache.New()
		params := []soapenc.Field{soapenc.F("message", "hello"), soapenc.F("count", int32(3))}
		if _, ok, err := c.Render("Echo", "urn:spi:Echo", "echo", params); err != nil || !ok {
			b.Fatalf("prime: ok=%v err=%v", ok, err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			em := xmltext.AcquireEmitter()
			if ok, err := c.RenderTo(em, "Echo", "urn:spi:Echo", "echo", params); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			xmltext.ReleaseEmitter(em)
		}
	}))
	add(measure("trace/record-nil", func(b *testing.B) {
		var tr *trace.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Enabled() {
				tr.Record(trace.Span{})
			}
		}
	}))
	add(measure("trace/record-enabled", func(b *testing.B) {
		tr := trace.New(4096)
		span := trace.Span{Trace: 1, Stage: trace.StageApp, Service: time.Millisecond}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Record(span)
		}
	}))

	// --- WS-Security verification -------------------------------------
	// One fresh token verified against a verifier already holding 100k
	// nonces. The replay check must cost the same whatever it remembers,
	// so this row tracks the per-message verify cost, not the set's size.
	{
		body := []byte(`<m:echo xmlns:m="urn:spi:Echo"><data>payload</data></m:echo>`)
		secret := []byte("bench-secret")
		signer := &wsse.Signer{Username: "alice", Secret: secret}
		verifier := &wsse.Verifier{Secrets: map[string][]byte{"alice": secret}}
		// Tokens are signed in chunks so that signed blocks never pile up
		// in memory; each block can be verified only once.
		const chunk = 1024
		sign := func(n int) []*xmldom.Element {
			blocks := make([]*xmldom.Element, n)
			for i := range blocks {
				hdr, err := signer.MakeHeaders(body)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
					os.Exit(1)
				}
				blocks[i] = hdr[0]
			}
			return blocks
		}
		for done := 0; done < 100_000; done += chunk {
			for _, block := range sign(chunk) {
				if err := verifier.ProcessHeader(block, body); err != nil {
					fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
					os.Exit(1)
				}
			}
		}
		add(measure("wsse/verify-100k-remembered", func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += chunk {
				b.StopTimer()
				blocks := sign(min(chunk, b.N-done))
				b.StartTimer()
				for _, block := range blocks {
					if err := verifier.ProcessHeader(block, body); err != nil {
						b.Fatal(err)
					}
				}
			}
		}))
	}

	// --- end-to-end hot paths -----------------------------------------
	arg := soapenc.F("data", strings.Repeat("a", 10))
	endToEnd := func(name string, opts bench.EnvOptions, packed bool) {
		env, err := bench.NewEnv(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		defer env.Close()
		add(measure(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if packed {
					batch := env.Client.NewBatch()
					for j := 0; j < 16; j++ {
						batch.Add("Echo", "echo", arg)
					}
					if err := batch.Send(); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := env.Client.Call("Echo", "echo", arg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}))
	}
	endToEnd("e2e/serial-echo", bench.EnvOptions{}, false)
	endToEnd("e2e/packed-echo-16", bench.EnvOptions{}, true)
	endToEnd("e2e/packed-echo-16-traced", bench.EnvOptions{Tracer: trace.New(8192)}, true)
	// The unified-fast-path row: WS-Security verification plus the
	// differential cache, both riding the streaming path. The gap to bare
	// e2e/packed-echo-16 is the price of those features per batch.
	endToEnd("e2e/packed-echo-16-wsse-diff", bench.EnvOptions{WSSecurity: true, DiffDeserialization: true}, true)

	// --- gateway scatter–gather ---------------------------------------
	gatewayE2E := func(name string, backends int) {
		env, err := bench.NewGatewayEnv(bench.GatewayOptions{
			Backends: backends, Network: netsim.Fast(), AppWorkers: 8,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		defer env.Close()
		add(measure(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch := env.Client.NewBatch()
				for j := 0; j < 16; j++ {
					batch.Add("Echo", "echo", arg)
				}
				if err := batch.Send(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	gatewayE2E("e2e/gw-packed-16-1-backend", 1)
	gatewayE2E("e2e/gw-packed-16-4-backends", 4)

	// --- control plane: weighted routing on a skewed fleet ------------
	// Four backends, one at 4× the per-op service time, with the admin
	// membership poller feeding the weighted policy. Guards the whole
	// control-plane loop end to end: poll → derate → shard placement.
	{
		env, err := bench.NewGatewayEnv(bench.GatewayOptions{
			Backends: 4, Network: netsim.Fast(), AppWorkers: 4,
			WorkTimes: []time.Duration{
				200 * time.Microsecond, 200 * time.Microsecond,
				200 * time.Microsecond, 800 * time.Microsecond,
			},
			Policy:       gateway.Weighted,
			AdminService: true,
			Membership: gateway.MembershipConfig{
				Enabled:      true,
				PollInterval: 10 * time.Millisecond,
				MinFactor:    0.05,
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		// Give the poller a few rounds to observe the skew before timing.
		warm := func() {
			batch := env.Client.NewBatch()
			for j := 0; j < 16; j++ {
				batch.Add("Echo", "echo", arg)
			}
			if err := batch.Send(); err != nil {
				fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
				os.Exit(1)
			}
		}
		for i := 0; i < 20; i++ {
			warm()
		}
		add(measure("e2e/gw-weighted-skewed-4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch := env.Client.NewBatch()
				for j := 0; j < 16; j++ {
					batch.Add("Echo", "echo", arg)
				}
				if err := batch.Send(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		env.Close()
	}

	// --- gateway cross-client coalescing ------------------------------
	// 16 independent single-call clients fire concurrently per iteration;
	// the gateway pools them into packed batches. Guards the coalescer's
	// end-to-end latency (flush window + batch round trip + split-back).
	{
		env, err := bench.NewGatewayEnv(bench.GatewayOptions{
			Backends: 2, Network: netsim.Fast(), AppWorkers: 8,
			Coalesce: gateway.CoalesceConfig{
				Enabled:     true,
				FlushWindow: 100 * time.Microsecond,
				MaxBatch:    16,
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		fleet := make([]*core.Client, 16)
		for i := range fleet {
			if fleet[i], err = env.NewClient(); err != nil {
				fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
				os.Exit(1)
			}
		}
		add(measure("e2e/gw-coalesced-singles-16", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, len(fleet))
				for j := range fleet {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						_, errs[j] = fleet[j].Call("Echo", "echo", arg)
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}))
		for _, c := range fleet {
			c.Close()
		}
		env.Close()
	}

	// --- transport tier -----------------------------------------------
	// The keep-alive row guards the pooled per-connection read buffers:
	// allocs/op on a steady keep-alive exchange is the number the bufpool
	// exists to hold down. The scaling rows guard the pipelined fleet path
	// at 1k and 10k connections — the C10k regime — where any per-exchange
	// overhead in the pipelined reader/writer loops multiplies by the
	// connection count.
	{
		f, err := bench.NewTransportFleet(1, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		add(measure("transport/keepalive-echo", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.Echo(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		f.Close()
	}
	for _, tc := range []struct {
		name         string
		conns, calls int
	}{
		{"transport/pipelined-1k-conns", 1024, 4},
		{"transport/pipelined-10k-conns", 10_000, 2},
	} {
		f, err := bench.NewTransportFleet(tc.conns, 8)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		add(measure(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.Sweep(tc.calls); err != nil {
					b.Fatal(err)
				}
			}
		}))
		f.Close()
	}

	report.GoVersion = runtime.Version()
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Results))

	if *baseline != "" {
		if err := compare(*baseline, report, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
	}
}

// compare checks the report against a baseline chain: any benchmark whose
// ns/op or allocs/op regressed by more than tolerance percent fails the
// run. The chain is a comma-separated list of snapshots; each benchmark is
// compared against the first file that records it, so a benchmark
// introduced in PR N keeps its PR N baseline even after later snapshots
// supersede the file for everything else. Benchmarks present on only one
// side are reported but do not fail — snapshots gain benchmarks as the
// codebase grows.
func compare(spec string, cur Report, tolerance float64) error {
	byName := make(map[string]Result)
	for _, path := range strings.Split(spec, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		var base Report
		if err := json.Unmarshal(blob, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", path, err)
		}
		for _, r := range base.Results {
			if _, ok := byName[r.Name]; !ok {
				byName[r.Name] = r
			}
		}
	}
	limit := 1 + tolerance/100
	var failures []string
	fmt.Printf("\ncompare vs %s (tolerance %.0f%%):\n", spec, tolerance)
	for _, r := range cur.Results {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("  %-32s new benchmark, no baseline\n", r.Name)
			continue
		}
		delete(byName, r.Name)
		nsDelta := pctDelta(r.NsPerOp, b.NsPerOp)
		allocDelta := pctDelta(float64(r.AllocsPerOp), float64(b.AllocsPerOp))
		verdict := "ok"
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*limit {
			verdict = "REGRESSION(ns/op)"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
				r.Name, b.NsPerOp, r.NsPerOp, nsDelta))
		} else if b.AllocsPerOp > 0 && float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*limit {
			verdict = "REGRESSION(allocs/op)"
			failures = append(failures, fmt.Sprintf("%s: %d -> %d allocs/op (%+.1f%%)",
				r.Name, b.AllocsPerOp, r.AllocsPerOp, allocDelta))
		}
		fmt.Printf("  %-32s ns/op %+7.1f%%  allocs/op %+7.1f%%  %s\n",
			r.Name, nsDelta, allocDelta, verdict)
	}
	for name := range byName {
		fmt.Printf("  %-32s dropped (present only in baseline)\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %.0f%%:\n  %s",
			len(failures), tolerance, strings.Join(failures, "\n  "))
	}
	fmt.Println("no regressions past tolerance")
	return nil
}

// pctDelta returns the percent change from base to cur (negative = better).
func pctDelta(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// sampleEnvelope serializes a packed envelope with n echo entries.
func sampleEnvelope(n int) []byte {
	env := buildEnvelope(n)
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func buildEnvelope(n int) *soap.Envelope {
	env := soap.New()
	for i := 0; i < n; i++ {
		el := newRequestElement("echo", []soapenc.Field{soapenc.F("data", "payload")})
		env.AddBody(el)
	}
	return env
}

func newRequestElement(op string, params []soapenc.Field) *xmldom.Element {
	el := xmldom.NewElement(xmltext.Name{Prefix: "m", Local: op})
	el.DeclareNamespace("m", "urn:spi:Echo")
	if err := soapenc.EncodeParams(el, params); err != nil {
		panic(err)
	}
	return el
}
