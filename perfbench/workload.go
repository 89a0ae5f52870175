package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/soapenc"
	"repro/internal/trace"
)

// workload is one traffic mix. Every round of a workload does the same
// fixed amount of work, so a faster program finishes a round sooner but
// never serves more requests in it.
type workload struct {
	name      string
	batch     int // entries per envelope; 1 sends single calls
	envelopes int // timed envelopes per round
	warmup    int // untimed envelopes per round, after set-up
	gateway   bool
	secure    bool
}

var workloads = []workload{
	{name: "packed", batch: 16, envelopes: 2000, warmup: 100},
	{name: "single-secure", batch: 1, envelopes: 6000, warmup: 300, secure: true},
	{name: "gateway-scatter", batch: 16, envelopes: 1000, warmup: 50, gateway: true},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// entry is one generated call and the reply it must produce.
type entry struct {
	service, op, param, value string
	want                      string
}

const (
	poolBytes      = 1 << 20
	workingSetSize = 128 // well inside the server's default 256-entry diff cache
	uniqueEvery    = 8   // single-secure: one body in eight was never seen before
)

// Weather cities and the reports WeatherService documents for them; any
// other city gets "No data for <city>".
var (
	cities  = []string{"Beijing", "Shanghai", "Tianjin", "Beijing, China", "Tianjin, China", "Guangzhou", "Chengdu"}
	reports = map[string]string{"Beijing": "Sunny, 31°C", "Shanghai": "Cloudy, 28°C", "Tianjin": "Light rain, 26°C"}
)

func weatherWant(city string) string {
	for known, r := range reports {
		if strings.HasPrefix(city, known) {
			return r
		}
	}
	return "No data for " + city
}

// inputs are everything a run derives from its seed: a text pool that echo
// payloads are cut from and the single-secure working set.
type inputs struct {
	seed    int64
	text    string
	working []entry
}

// Echo payload alphabet: mostly alphanumerics, with XML-special and
// punctuation characters so the codec escapes some of them. No whitespace,
// so payloads survive the round trip byte for byte.
const (
	alnum    = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	specials = `&<>'"-_.:;/=+,()[]#!?@$%*`
)

func newInputs(seed int64) *inputs {
	rnd := rand.New(rand.NewSource(seed))
	b := make([]byte, poolBytes)
	for i := range b {
		if rnd.Intn(10) == 0 {
			b[i] = specials[rnd.Intn(len(specials))]
		} else {
			b[i] = alnum[rnd.Intn(len(alnum))]
		}
	}
	in := &inputs{seed: seed, text: string(b)}
	for i := 0; i < workingSetSize; i++ {
		in.working = append(in.working, in.smallEntry(rnd))
	}
	return in
}

func (in *inputs) echo(rnd *rand.Rand, minLen, maxLen int) entry {
	// Log-uniform length, so short and long payloads are both common.
	n := int(math.Exp(math.Log(float64(minLen)) + rnd.Float64()*(math.Log(float64(maxLen))-math.Log(float64(minLen)))))
	off := rnd.Intn(len(in.text) - n)
	v := in.text[off : off+n]
	return entry{service: "Echo", op: "echo", param: "data", value: v, want: v}
}

func weather(rnd *rand.Rand) entry {
	c := cities[rnd.Intn(len(cities))]
	return entry{service: "WeatherService", op: "GetWeather", param: "CityName", value: c, want: weatherWant(c)}
}

// smallEntry is a single-secure body: a short echo or a weather query.
func (in *inputs) smallEntry(rnd *rand.Rand) entry {
	if rnd.Intn(4) == 0 {
		return weather(rnd)
	}
	return in.echo(rnd, 16, 96)
}

// gen produces one caller's entries for one round.
type gen struct {
	in     *inputs
	w      workload
	rnd    *rand.Rand
	prefix string
	n      int
}

func newGen(in *inputs, w workload, round, caller int) *gen {
	// splitmix-style mixing keeps caller and round streams independent.
	s := uint64(in.seed)*0x9E3779B97F4A7C15 + uint64(round)*0xBF58476D1CE4E5B9 + uint64(caller)*0x94D049BB133111EB + 1
	return &gen{in: in, w: w, rnd: rand.New(rand.NewSource(int64(s >> 1))),
		prefix: "u" + strconv.Itoa(round) + "." + strconv.Itoa(caller) + "."}
}

func (g *gen) next() entry {
	if g.w.batch > 1 {
		// Packed mix: three echo payloads of tens of bytes to a few KiB for
		// every weather query.
		if g.rnd.Intn(4) == 0 {
			return weather(g.rnd)
		}
		return g.in.echo(g.rnd, 16, 4096)
	}
	g.n++
	if g.rnd.Intn(uniqueEvery) == 0 {
		e := g.in.echo(g.rnd, 16, 96)
		e.value = g.prefix + strconv.Itoa(g.n) + ":" + e.value
		e.want = e.value
		return e
	}
	return g.in.working[g.rnd.Intn(len(g.in.working))]
}

// check compares one reply against the entry that produced it.
func (e entry) check(res []soapenc.Field, err error) error {
	if err != nil {
		return fmt.Errorf("%s.%s: %w", e.service, e.op, err)
	}
	if len(res) != 1 {
		return fmt.Errorf("%s.%s: %d result fields, want 1", e.service, e.op, len(res))
	}
	got, _ := res[0].Value.(string)
	if got != e.want {
		return fmt.Errorf("%s.%s: got %.40q, want %.40q", e.service, e.op, got, e.want)
	}
	return nil
}

// callOutcome tallies one phase of calls.
type callOutcome struct {
	calls, failed int64
	lat           []time.Duration // one per exchange
	firstErr      error
}

func (o *callOutcome) add(p callOutcome) {
	o.calls += p.calls
	o.failed += p.failed
	o.lat = append(o.lat, p.lat...)
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// exchange sends one envelope (a packed batch or a single call) and checks
// every reply; d is the exchange as the caller sees it.
func exchange(client *core.Client, tr *trace.Tracer, g *gen, entries []entry, calls []*core.Call) (d time.Duration, failed int, err error) {
	for i := range entries {
		entries[i] = g.next()
	}
	ctx := context.Background()
	var id uint64
	if tr != nil {
		id = tr.Begin()
		ctx = trace.NewContext(ctx, id)
	}
	start := time.Now()
	if len(entries) == 1 {
		e := entries[0]
		res, cerr := client.CallCtx(ctx, e.service, e.op, soapenc.F(e.param, e.value))
		d = time.Since(start)
		tr.Record(trace.Span{Trace: id, Stage: stageCall, ID: -1, Start: start, Service: d})
		if cerr = e.check(res, cerr); cerr != nil {
			return d, 1, cerr
		}
		return d, 0, nil
	}
	b := client.NewBatch()
	for i, e := range entries {
		calls[i] = b.Add(e.service, e.op, soapenc.F(e.param, e.value))
	}
	_ = b.SendCtx(ctx) // per-entry outcomes arrive on the futures
	for _, c := range calls {
		<-c.Done()
	}
	d = time.Since(start)
	tr.Record(trace.Span{Trace: id, Stage: stageBatchSend, ID: -1, Start: start, Service: d})
	for i, c := range calls {
		if cerr := entries[i].check(c.Wait()); cerr != nil {
			failed++
			if err == nil {
				err = cerr
			}
		}
	}
	return d, failed, err
}

// runCallers drives the closed loop: each caller sends its share of n
// envelopes, one at a time, waiting for every reply before the next.
func runCallers(top *topology, w workload, in *inputs, round, callers, n int, keepLat bool) callOutcome {
	outs := make([]callOutcome, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		share := n / callers
		if c < n%callers {
			share++
		}
		wg.Add(1)
		go func(c, share int) {
			defer wg.Done()
			g := newGen(in, w, round, c)
			entries := make([]entry, w.batch)
			calls := make([]*core.Call, w.batch)
			o := &outs[c]
			if keepLat {
				o.lat = make([]time.Duration, 0, share)
			}
			for i := 0; i < share; i++ {
				d, failed, err := exchange(top.client, top.hooks.tr, g, entries, calls)
				o.calls += int64(w.batch)
				o.failed += int64(failed)
				if err != nil && o.firstErr == nil {
					o.firstErr = err
				}
				if keepLat {
					o.lat = append(o.lat, d)
				}
			}
		}(c, share)
	}
	wg.Wait()
	var total callOutcome
	for _, o := range outs {
		total.add(o)
	}
	return total
}

// roundResult is everything one round measured.
type roundResult struct {
	traced bool
	setup  time.Duration

	attempted, failed int64 // every call of the round, set-up included
	firstErr          error

	// Timed phase.
	calls    int64
	envs     int64
	wall     time.Duration
	lat      []time.Duration
	cpu      time.Duration
	mallocs  uint64
	heapBase uint64 // live heap after a forced GC before the timed phase
	liveHeap uint64 // live heap after a forced GC after it, nodes still up
	dials    int64  // data connections opened in the whole round
	reads    int64
	rbytes   int64
	syscw    int64 // write syscalls of the whole process, -1 if unknown

	// End of round.
	statsDur    time.Duration // one direct Server.Stats() on every server
	scrape      time.Duration // median admin GetStats round over every node
	scrapeBytes int
	srv         serverCounters
	gw          gatewayCounters
	workers     int // application-stage workers over every server

	// Traced rounds only.
	spans  []span
	verify []time.Duration
	sign   []time.Duration
	bodies [][]byte
}

type serverCounters struct {
	requests, envelopes, itemFaults, rejected, diffHits, diffMisses int64
	parseP50, dispatchP50, encodeP50                                time.Duration
}

type gatewayCounters struct {
	envelopes, scattered, exchanges, failovers, degraded int64
}

type runConfig struct {
	w        workload
	seed     int64
	seconds  int
	trace    bool
	callers  int
	connCap  int
	traceDir string

	// Test knobs: scale the per-round work down, corrupt replies.
	envelopes, warmup int
	corruptEvery      int64
}

const scrapeRounds = 5

// runRound starts a fresh topology, times its set-up, warms it up, runs
// the fixed timed work, cross-checks the program's own counters and
// scrapes every node, then tears it down.
func runRound(cfg runConfig, in *inputs, round int, tr *trace.Tracer) (*roundResult, error) {
	w := cfg.w
	h := &hooks{tr: tr, corruptEvery: cfg.corruptEvery}
	r := &roundResult{traced: tr != nil}

	start := time.Now()
	top, err := startTopology(w, cfg.connCap, h)
	if err != nil {
		return nil, err
	}
	defer top.close()
	// One verified call per operation through the front node, and one
	// GetStats from every node, before the topology counts as set up.
	setupCalls := []entry{
		{service: "Echo", op: "echo", param: "data", value: "setup", want: "setup"},
		weather(rand.New(rand.NewSource(in.seed))),
	}
	for _, e := range setupCalls {
		r.attempted++
		if err := e.check(top.client.Call(e.service, e.op, soapenc.F(e.param, e.value))); err != nil {
			return nil, fmt.Errorf("set-up call: %w", err)
		}
	}
	for _, n := range top.nodes {
		if _, _, err := n.getStats(context.Background()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	r.setup = time.Since(start)

	envelopes, warmup := w.envelopes, w.warmup
	if cfg.envelopes > 0 {
		envelopes, warmup = cfg.envelopes, cfg.warmup
	}
	// Traced rounds capture the request bytes the front node reads during
	// warm-up, for replay through the codec.
	front := top.nodes[0].accept
	front.arm(r.traced, 256<<10)
	warm := runCallers(top, w, in, -1-round, cfg.callers, warmup, false)
	front.arm(false, 0)
	if r.traced {
		for _, stream := range front.captured() {
			r.bodies = append(r.bodies, requestBodies(stream)...)
		}
		tr.Reset()
		h.verify, h.sign = durations{}, durations{}
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapBase, r.mallocs = ms.HeapAlloc, ms.Mallocs
	reads0, rbytes0 := top.dataReads()
	syscw0 := writeSyscalls()
	cpu0 := cpuTime()
	t0 := time.Now()
	timed := runCallers(top, w, in, round, cfg.callers, envelopes, true)
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	if syscw0 >= 0 {
		r.syscw = writeSyscalls() - syscw0
	} else {
		r.syscw = -1
	}
	reads1, rbytes1 := top.dataReads()
	r.reads, r.rbytes = reads1-reads0, rbytes1-rbytes0
	r.dials = top.dataDials()
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc

	r.calls, r.envs, r.lat = timed.calls, int64(envelopes), timed.lat
	r.attempted += warm.calls + timed.calls
	r.failed = warm.failed + timed.failed
	r.firstErr = warm.firstErr
	if r.firstErr == nil {
		r.firstErr = timed.firstErr
	}
	if err := r.crossCheck(top, int64(len(setupCalls))+warm.calls+timed.calls); err != nil {
		return nil, err
	}
	if r.traced {
		if d := tr.Dropped(); d > 0 {
			return nil, fmt.Errorf("tracer ring overflowed by %d spans; raise its capacity", d)
		}
		r.spans = compactSpans(tr.Snapshot(), t0)
		r.verify, r.sign = h.verify.snapshot(), h.sign.snapshot()
	}
	if err := r.scrapeAll(top); err != nil {
		return nil, err
	}
	if err := top.checkTiers(); err != nil {
		return nil, err
	}
	return r, nil
}

// crossCheck reads the program's own counters (timing Server.Stats) and
// fails the round on any disagreement with the calls the benchmark issued.
func (r *roundResult) crossCheck(top *topology, issued int64) error {
	var errs []error
	statsDurs := make([]time.Duration, 3)
	for i := range statsDurs {
		var sum time.Duration
		for _, s := range top.servers {
			start := time.Now()
			st := s.Stats()
			d := time.Since(start)
			top.hooks.tr.Record(trace.Span{Stage: stageStats, ID: -1, Start: start, Service: d})
			sum += d
			if i > 0 {
				continue
			}
			c := &r.srv
			c.requests += st.Requests
			c.envelopes += st.Envelopes
			c.itemFaults += st.ItemFaults
			c.rejected += st.AppStage.Rejected
			c.diffHits += st.DiffHits
			c.diffMisses += st.DiffMisses
			c.parseP50 += st.ParsePhase.P50 / time.Duration(len(top.servers))
			c.dispatchP50 += st.DispatchPhase.P50 / time.Duration(len(top.servers))
			c.encodeP50 += st.EncodePhase.P50 / time.Duration(len(top.servers))
			r.workers += st.AppStage.Workers
			if st.ItemFaults != 0 || st.Faults != 0 || len(st.FaultCodes) != 0 {
				errs = append(errs, fmt.Errorf("server counted faults: item %d, message %d, codes %v",
					st.ItemFaults, st.Faults, st.FaultCodes))
			}
		}
		statsDurs[i] = sum
	}
	r.statsDur = medianDur(statsDurs)
	// Each server also executed the one set-up GetStats it was sent.
	if want := issued + int64(len(top.servers)); r.srv.requests != want {
		errs = append(errs, fmt.Errorf("servers executed %d requests, benchmark issued %d calls (+%d GetStats)",
			r.srv.requests, issued, len(top.servers)))
	}
	if top.gw != nil {
		st := top.gw.Stats()
		g := &r.gw
		g.envelopes, g.scattered, g.failovers, g.degraded = st.Envelopes, st.Scattered, st.Failovers, st.Degraded
		for _, b := range st.Backends {
			g.exchanges += b.Exchanges
		}
		if st.Faults != 0 || st.ItemFaults != 0 || g.failovers != 0 || g.degraded != 0 {
			errs = append(errs, fmt.Errorf("gateway faults %d, item faults %d, failovers %d, degraded %d",
				st.Faults, st.ItemFaults, g.failovers, g.degraded))
		}
		// Every packed envelope is scattered to between one and all
		// backends, and each sub-batch is one backend envelope.
		packed := st.Packed
		if packed < 1 || g.scattered < packed || g.scattered > packed*int64(len(top.servers)) {
			errs = append(errs, fmt.Errorf("gateway scattered %d sub-batches for %d packed envelopes over %d backends",
				g.scattered, packed, len(top.servers)))
		}
		if proxied := st.Proxied; g.scattered+proxied+int64(len(top.servers)) != r.srv.envelopes {
			errs = append(errs, fmt.Errorf("gateway sent %d sub-batches and %d proxied envelopes, backends saw %d envelopes (-%d GetStats)",
				g.scattered, proxied, r.srv.envelopes, len(top.servers)))
		}
	}
	return errors.Join(errs...)
}

// scrapeAll times scrapeRounds admin GetStats rounds over every node.
func (r *roundResult) scrapeAll(top *topology) error {
	ds := make([]time.Duration, scrapeRounds)
	for i := range ds {
		start := time.Now()
		total := 0
		for _, n := range top.nodes {
			st, size, err := n.getStats(context.Background())
			if err != nil {
				return err
			}
			if st.Envelopes == 0 {
				return fmt.Errorf("GetStats %s reports no envelopes", n.name)
			}
			total += size
		}
		ds[i] = time.Since(start)
		r.scrapeBytes = total
	}
	r.scrape = medianDur(ds)
	return nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeSyscalls reads the process's write syscall count (syscw) from
// /proc/self/io, or -1 where that file does not exist. Vectored writes
// (writev) count as one, which a net.Conn wrapper could not observe
// without defeating them.
func writeSyscalls() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// requestBodies splits a captured HTTP/1.1 request stream into bodies.
func requestBodies(stream []byte) [][]byte {
	var out [][]byte
	for {
		i := bytes.Index(stream, []byte("\r\n\r\n"))
		if i < 0 {
			return out
		}
		head := string(stream[:i])
		n := -1
		for _, line := range strings.Split(head, "\r\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
				n, _ = strconv.Atoi(strings.TrimSpace(v))
			}
		}
		rest := stream[i+4:]
		if n < 0 || n > len(rest) {
			return out
		}
		out = append(out, rest[:n])
		stream = rest[n:]
	}
}
