package gateway

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/trace"
)

// Handle is the gateway's HTTP handler: packed POSTs are scattered across
// the backend pool; everything else (single requests, WSDL GETs) is
// proxied whole to one backend, so the gateway is a drop-in endpoint.
func (g *Gateway) Handle(ctx context.Context, req *httpx.Request) *httpx.Response {
	// The gateway's own management surface: single-call envelopes POSTed to
	// <prefix>Admin are answered by the self-hosted Admin service, not
	// proxied — the gateway's stats and drain state are its own. Packed
	// envelopes are still scattered even if they carry Admin entries, so a
	// monitoring client can pack GetStats across the backend fleet.
	if g.adminSrv != nil && g.isAdminTarget(req.Target) {
		return g.adminSrv.HandleHTTP(ctx, req)
	}
	if req.Method == "GET" {
		if g.cfg.DebugEndpoints && strings.HasPrefix(req.Target, debugPathPrefix) {
			return g.handleDebug(req)
		}
		return g.proxy(ctx, req)
	}
	if req.Method != "POST" {
		resp := httpx.NewResponse(405, []byte("SOAP endpoint: POST only\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	defaultService, ok := g.serviceFromPath(req.Target)
	if !ok {
		resp := httpx.NewResponse(404, []byte("no such endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}

	// Adopt the client's trace id so gateway spans correlate with the
	// client's and the backends'.
	tr := g.cfg.Tracer
	if tr.Enabled() {
		tid := gatewayTraceID(req)
		if tid == 0 {
			tid = tr.Begin()
		}
		ctx = trace.NewContext(ctx, tid)
	}

	// Zero-copy fast path: a single-call envelope headed for the proxy
	// path anyway is spliced through a backend without being parsed here.
	// Packed envelopes (byte sniff) and coalescing deployments fall
	// through to the parsed path below.
	if g.passthroughEligible(req) {
		return g.passthrough(ctx, req)
	}

	scatterStart := time.Now()
	sr, parseFault := core.ParseScatterRequest(req.Body, defaultService)
	if parseFault != nil {
		// Whole-message faults preserve the direct server's precedence and
		// bytes: decode errors answer in SOAP 1.1, body-shape faults in the
		// request's own version.
		g.faults.Inc()
		g.faultCodes.NoteSOAP(parseFault)
		v := soap.V11
		if sr != nil {
			v = sr.Version
		}
		return core.GatewayFaultResponse(parseFault, v)
	}
	g.envelopes.Inc()
	if !sr.Packed {
		// Single call: try to merge it into a forming cross-client batch.
		// A nil return means it was not coalescible (or coalescing is off)
		// and falls through to the byte-transparent proxy path.
		if resp := g.coalesce(ctx, req, defaultService); resp != nil {
			return resp
		}
		g.proxied.Inc()
		return g.proxy(ctx, req)
	}
	g.packed.Inc()
	return g.scatterGather(ctx, req, sr, scatterStart)
}

// serviceFromPath resolves the target path against the prefix: the bare
// prefix is the pack endpoint (no default service), a sub-path names the
// default service for unannotated entries — same routing as the server.
func (g *Gateway) serviceFromPath(target string) (string, bool) {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	bare := strings.TrimSuffix(g.cfg.PathPrefix, "/")
	if target == bare || target == g.cfg.PathPrefix {
		return "", true
	}
	if !strings.HasPrefix(target, g.cfg.PathPrefix) {
		return "", false
	}
	return strings.TrimPrefix(target, g.cfg.PathPrefix), true
}

// isAdminTarget reports whether the target names the gateway's own Admin
// endpoint (query string ignored, so ?wsdl still resolves to it).
func (g *Gateway) isAdminTarget(target string) bool {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	return target == g.cfg.PathPrefix+"Admin"
}

// packTarget is the URL sub-batches POST to on backends.
func (g *Gateway) packTarget() string {
	return strings.TrimSuffix(g.cfg.PathPrefix, "/")
}

// gatewayTraceID parses the SPI-Trace header; zero means absent.
func gatewayTraceID(req *httpx.Request) uint64 {
	v := req.Header.Get(core.HeaderTrace)
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// deadlineBudget reads the propagated SPI-Deadline budget.
func deadlineBudget(req *httpx.Request) time.Duration {
	v := req.Header.Get(core.HeaderDeadline)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// shortenBudget mirrors the server's grace policy so a degraded response
// still beats the client's own deadline.
func (g *Gateway) shortenBudget(budget time.Duration) time.Duration {
	grace := g.cfg.DeadlineGrace
	if grace <= 0 {
		grace = budget / 5
		if grace > 100*time.Millisecond {
			grace = 100 * time.Millisecond
		}
	}
	if budget > grace {
		budget -= grace
	}
	return budget
}

// scatterGather shards the parsed entries, fans the sub-batches out, and
// reassembles the packed response in slot order through the reorder-window
// collector.
func (g *Gateway) scatterGather(ctx context.Context, req *httpx.Request, sr *core.ScatterRequest, scatterStart time.Time) *httpx.Response {
	tr := g.cfg.Tracer
	if budget := deadlineBudget(req); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.shortenBudget(budget))
		defer cancel()
	}

	ids := make([]int, len(sr.Entries))
	for i, e := range sr.Entries {
		ids[i] = e.ID
	}
	col := core.NewGatherCollector(ids)
	for _, e := range sr.Entries {
		if e.Fault != nil {
			g.faultCodes.NoteSOAP(e.Fault)
			col.Fail(e.Slot, e.Fault)
		}
	}

	for _, sh := range g.assign(sr.Entries) {
		g.scattered.Inc()
		go g.sendShard(ctx, sh.b, sr, sh.entries, col)
	}
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageGatewayScatter,
			ID: -1, Op: req.Target, Start: scatterStart, Service: time.Since(scatterStart)})
	}

	gatherStart := time.Now()
	resp, itemFaults, err := col.Assemble(ctx, sr.Version, func(slot int) *soap.Fault {
		g.degraded.Inc()
		df := degradeFault(ctx, sr.Entries[slot])
		g.faultCodes.NoteSOAP(df)
		return df
	})
	if err != nil {
		g.faults.Inc()
		af := soap.ServerFault("assembling packed response: %v", err)
		g.faultCodes.NoteSOAP(af)
		return core.GatewayFaultResponse(af, sr.Version)
	}
	g.itemFaults.Add(int64(itemFaults))
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageGatewayGather,
			ID: -1, Op: req.Target, Start: gatherStart, Service: time.Since(gatherStart)})
	}
	return resp
}

// degradeFault is the per-item fault for a slot the gateway stopped
// waiting on — byte-identical to the direct server abandoning the same
// entry (abandonResult). ctx has expired: a cancelled caller gets the
// cancel text, a passed deadline the timeout text, even before ctx's own
// timer has set ctx.Err().
func degradeFault(ctx context.Context, e *core.ScatterEntry) *soap.Fault {
	if !errors.Is(ctx.Err(), context.Canceled) {
		return fault.ToSOAP(fault.Timeoutf(
			"deadline expired before %s.%s finished", e.Service, e.Op).
			With(fault.KeyOp, e.Service+"."+e.Op))
	}
	return fault.ToSOAP(fault.Cancelledf(
		"caller cancelled before %s.%s finished", e.Service, e.Op).
		With(fault.KeyOp, e.Service+"."+e.Op))
}

// allIdempotent reports whether every operation in the shard is marked
// idempotent in the registry — the gate for failing over sub-batches whose
// first attempt may already have executed.
func (g *Gateway) allIdempotent(shard []*core.ScatterEntry) bool {
	if g.cfg.Registry == nil {
		return false
	}
	for _, e := range shard {
		if !g.cfg.Registry.Idempotent(e.Service, e.Op) {
			return false
		}
	}
	return true
}

// resultSink receives one shard's slot outcomes. The scatter path plugs in
// a *core.GatherCollector (reassembly into one packed response); the
// coalescer plugs in a coalesceSink (delivery straight to parked single
// calls). Sinks must tolerate late or duplicate writes to a slot
// (first write wins).
type resultSink interface {
	// AddHeader records the raw response-header section from the backend
	// that answered, keyed by backend index. Called before the shard's
	// Deliver calls.
	AddHeader(backend int, raw []byte)
	// Deliver hands a slot its raw packed-response segment.
	Deliver(slot int, segment []byte)
	// Fail resolves a slot with a per-item fault.
	Fail(slot int, f *soap.Fault)
}

// sendShard delivers one sub-batch: build once, exchange, and on an
// eligible failure fail over to another available backend under the retry
// policy. Exhausted or ineligible failures degrade the shard's slots to
// per-item faults; slots already degraded by the deadline ignore late
// deliveries (first write wins). Every slot is resolved — Deliver or
// Fail — before sendShard returns.
func (g *Gateway) sendShard(ctx context.Context, b *backend, sr *core.ScatterRequest, shard []*core.ScatterEntry, col resultSink) {
	// assign reserved these entries on b; release from whichever backend
	// holds the reservation when the shard resolves (failover moves it).
	defer func() { b.entriesInflight.Add(int64(-len(shard))) }()
	doc, err := core.BuildSubBatch(sr.Version, sr.Headers, shard)
	if err != nil {
		f := soap.ServerFault("building sub-batch: %v", err)
		for _, e := range shard {
			g.faultCodes.NoteSOAP(f)
			col.Fail(e.Slot, f)
		}
		return
	}
	idem := g.allIdempotent(shard)
	p := g.cfg.Retry
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	for attempt := 1; ; attempt++ {
		segs, rawHeader, err := g.exchange(ctx, b, sr.Version, doc, len(shard))
		if err == nil {
			b.noteSuccess()
			col.AddHeader(b.index, rawHeader)
			for k, e := range shard {
				col.Deliver(e.Slot, segs[k])
			}
			return
		}
		b.noteFailure(g.cfg.FailureThreshold, g.cfg.ReprobeAfter)
		if attempt >= attempts || ctx.Err() != nil || !core.RetryableError(err, idem) {
			for _, e := range shard {
				sf := shardFault(ctx, e, err)
				g.faultCodes.NoteSOAP(sf)
				col.Fail(e.Slot, sf)
			}
			return
		}
		if sleepCtx(ctx, p.Backoff(attempt)) != nil {
			for _, e := range shard {
				sf := shardFault(ctx, e, err)
				g.faultCodes.NoteSOAP(sf)
				col.Fail(e.Slot, sf)
			}
			return
		}
		if next := g.pickBackend(b); next != nil && next != b {
			b.failovers.Inc()
			g.failovers.Inc()
			b.entriesInflight.Add(int64(-len(shard)))
			next.entriesInflight.Add(int64(len(shard)))
			b = next
		}
	}
}

// shardFault maps a failed sub-batch to its per-item fault: the caller's
// own expiry uses the server's deadline/cancel texts (byte parity with a
// direct server degrading the same entry); anything else is
// upstream-unavailable (Server.Busy on the wire) — the work never produced
// a response, and re-sending the entry is the client's call.
func shardFault(ctx context.Context, e *core.ScatterEntry, err error) *soap.Fault {
	if expired(ctx) {
		return degradeFault(ctx, e)
	}
	return fault.ToSOAP(fault.Upstreamf(
		"no backend available for %s.%s: %v", e.Service, e.Op, err).
		With(fault.KeyOp, e.Service+"."+e.Op))
}

// expired reports whether ctx has ended or its deadline has passed. A
// backend read deadline taken from ctx can fire before ctx's own timer
// sets ctx.Err(), so the clock decides whether the caller's budget ran
// out.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// sleepCtx waits out one backoff, honoring ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exchange performs one sub-batch POST against a backend and splits the
// reply into per-entry segments.
func (g *Gateway) exchange(ctx context.Context, b *backend, v soap.Version, doc []byte, want int) (segments [][]byte, rawHeader []byte, err error) {
	tr := g.cfg.Tracer
	start := time.Now()
	b.exchanges.Inc()
	n := b.inflight.Add(1)
	if tr.Enabled() {
		tr.Gauge("gateway." + b.name + ".inflight").Set(n)
	}
	defer func() {
		left := b.inflight.Add(-1)
		if tr.Enabled() {
			tr.Gauge("gateway." + b.name + ".inflight").Set(left)
			tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageGatewayBackend,
				ID: -1, Op: b.name, Start: start, Service: time.Since(start)})
		}
	}()

	extra := make([]string, 0, 6)
	extra = append(extra, "SOAPAction", `""`)
	if deadline, ok := ctx.Deadline(); ok {
		if budget := time.Until(deadline); budget > 0 {
			extra = append(extra, core.HeaderDeadline, strconv.FormatInt(budget.Milliseconds(), 10))
		}
	}
	if id := trace.FromContext(ctx); id != 0 {
		extra = append(extra, core.HeaderTrace, strconv.FormatUint(id, 10))
	}
	resp, err := b.client.PostCtx(ctx, g.packTarget(), v.ContentType(), doc, extra...)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Release()
	if resp.StatusCode != 200 {
		// A whole-message fault for a gateway-built sub-batch (the backend
		// rejected what we sent); surface it for retry classification.
		if f := core.DecodeBackendFault(resp.Body); f != nil {
			return nil, nil, f
		}
		return nil, nil, fmt.Errorf("gateway: backend %s answered HTTP %d", b.name, resp.StatusCode)
	}
	segments, rawHeader, err = core.SplitGatherResponse(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if len(segments) != want {
		return nil, nil, fmt.Errorf("gateway: backend %s returned %d entries for %d requests", b.name, len(segments), want)
	}
	return segments, rawHeader, nil
}

// proxy forwards a request whole to one backend and relays the reply —
// the non-packed path, byte-transparent by construction.
func (g *Gateway) proxy(ctx context.Context, req *httpx.Request) *httpx.Response {
	b := g.pickBackend(nil)
	if b == nil {
		resp := httpx.NewResponse(503, []byte("no backend available\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	out := httpx.NewRequest(req.Method, req.Target, req.Body)
	for _, h := range [...]string{"Content-Type", "SOAPAction", core.HeaderDeadline, core.HeaderTrace} {
		if v := req.Header.Get(h); v != "" {
			out.Header.Set(h, v)
		}
	}
	b.exchanges.Inc()
	n := b.inflight.Add(1)
	b.entriesInflight.Add(1)
	defer func() { b.inflight.Add(-1); b.entriesInflight.Add(-1) }()
	_ = n
	resp, err := b.client.DoCtx(ctx, out)
	if err != nil {
		b.noteFailure(g.cfg.FailureThreshold, g.cfg.ReprobeAfter)
		g.faults.Inc()
		resp := httpx.NewResponse(502, []byte("backend exchange failed: "+err.Error()+"\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	b.noteSuccess()
	// Relay status, content type and body. The body may alias a pooled
	// buffer owned by the backend client's response; copy so the transport
	// can write it after this handler returns without a lifetime knot.
	relay := httpx.NewResponse(resp.StatusCode, append([]byte(nil), resp.Body...))
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		relay.Header.Set("Content-Type", ct)
	}
	resp.Release()
	return relay
}
