package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/stage"
	"repro/internal/trace"
	"repro/internal/wsdl"
	"repro/internal/xmldom"
)

// HeaderProcessor handles one kind of SOAP header block on the server —
// the extension point WS-Security (package wsse) plugs into. A processor
// that returns an error faults the whole message.
type HeaderProcessor interface {
	// HeaderName returns the namespace URI and local name of the blocks
	// this processor understands.
	HeaderName() (ns, local string)
	// ProcessHeader validates/consumes one matching header block. body is
	// the canonical serialization of the envelope's body entries, for
	// signature verification.
	ProcessHeader(block *xmldom.Element, body []byte) error
}

// ServerConfig configures an SPI server.
type ServerConfig struct {
	// Container holds the deployed services. Required.
	Container *registry.Container

	// AppWorkers is the application-stage pool width (default 32). This is
	// the second, independent thread pool of §3.3 that executes service
	// operations. With AdaptiveAppStage it becomes the ceiling.
	AppWorkers int
	// AppQueue is the application-stage queue depth (default 1024).
	AppQueue int
	// AdaptiveAppStage replaces the fixed pool with a SEDA-style
	// controller-managed pool that grows under queue pressure and shrinks
	// when idle, between AppWorkersMin and AppWorkers (SEDA §4.2, the
	// paper's reference [5]).
	AdaptiveAppStage bool
	// AppWorkersMin is the adaptive pool's floor (default 2).
	AppWorkersMin int

	// ProtocolWorkers, when > 0, bounds the number of requests in protocol
	// processing simultaneously, modelling the first-stage thread pool.
	// Zero means unbounded (one goroutine per connection).
	ProtocolWorkers int

	// Coupled disables the staged architecture: operations execute inline
	// on the protocol goroutine, exactly the traditional coupled
	// architecture of the paper's Figure 1. Packed messages then execute
	// their requests serially. For ablation benchmarks.
	Coupled bool

	// PathPrefix is the URL prefix services are mounted under
	// (default "/services/").
	PathPrefix string

	// HeaderProcessors handle recognised header blocks (e.g. WS-Security).
	HeaderProcessors []HeaderProcessor

	// Interceptors wrap envelope dispatch, first entry outermost — the
	// Axis handler-chain architecture the paper's implementation plugged
	// into (§3.6). They run after header processing, around the
	// pack/plan/single dispatcher. Because they see (and may rewrite) the
	// whole envelope, configuring any forces the buffered dispatch path;
	// entry-safe interceptors should use EntryInterceptors (or the
	// EntrySafe adapter) to keep the streaming fast path.
	Interceptors []Interceptor

	// EntryInterceptors run once per body entry — each Parallel_Method
	// child, or the single call — on both dispatch paths, first entry
	// outermost. Unlike Interceptors they do not gate the streaming fast
	// path: each entry is intercepted as its subtree closes. A fault from
	// one becomes the entry's per-item fault inside a packed response (the
	// message fault for a single call).
	EntryInterceptors []EntryInterceptor

	// BufferedDispatch forces the buffered (parse-whole-envelope) dispatch
	// path even when the streaming path could serve the request — the
	// explicit opt-out for deployments that need whole-tree envelope
	// inspection without configuring an Interceptor.
	BufferedDispatch bool

	// MaxBodyBytes caps request bodies; zero means the httpx default.
	MaxBodyBytes int64

	// PipelineWindow, when > 1, enables HTTP/1.1 pipelining on the
	// transport: a connection whose client sends back-to-back requests
	// decodes request N+1 while N executes, with up to PipelineWindow
	// exchanges in flight per connection and responses written strictly
	// in request order. 0 or 1 keeps the serial per-connection loop.
	PipelineWindow int
	// ReadTimeout bounds reading one full request off a connection;
	// WriteTimeout bounds writing one full response. Both are enforced as
	// watchdogs on the shared httpx deadline wheel (coarse 5ms ticks, no
	// per-request runtime timers); expiry closes the connection. Zero
	// disables the respective watchdog.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// DifferentialDeserialization enables the §2.2 related-work
	// server-side optimization ([4]/[11]): repeated byte-identical
	// request bodies reuse a cached parse instead of re-tokenizing.
	DifferentialDeserialization bool
	// DiffCacheSize bounds the differential cache (default 256 messages).
	DiffCacheSize int

	// AdmissionTimeout bounds how long a request waits for space in the
	// application-stage queue before being shed with a Server.Busy fault
	// (per item for packed messages). Zero preserves the unbounded
	// blocking submit.
	AdmissionTimeout time.Duration
	// OperationTimeout bounds each operation execution. An operation
	// that overruns returns a Server.Timeout fault (per item in packed
	// responses); its handler keeps running detached until it observes
	// HandlerContext.Ctx and should abort then.
	OperationTimeout time.Duration
	// DeadlineGrace is subtracted from the client-propagated deadline
	// budget (SPI-Deadline header) so a degraded response is assembled
	// and shipped before the client itself gives up. Zero means
	// one fifth of the budget, capped at 100ms.
	DeadlineGrace time.Duration

	// Tracer, when non-nil, records server-side spans for every envelope:
	// server.protocol (parse), server.dispatch, one server.app span per
	// operation execution (queue wait vs. service time), server.assemble
	// (response encoding) — plus app-queue-depth gauges. The trace id
	// arrives in the client's SPI-Trace header, so sharing a Tracer
	// between client and server correlates both sides. Nil disables
	// tracing; the disabled path costs one branch per hop.
	Tracer *trace.Tracer

	// DebugEndpoints exposes GET /spi/stats (a JSON snapshot of
	// ServerStats plus per-stage trace summaries) and GET
	// /spi/pprof/<profile> (runtime profiles: goroutine, heap, allocs,
	// block, mutex, threadcreate) on this server. Off by default: these
	// endpoints are for operators, not for the SOAP surface.
	DebugEndpoints bool

	// AdminService deploys the cluster control-plane "Admin" service
	// (GetStats/SetState) into the container, making this server pollable
	// by gateway membership managers and cmd/spiexporter. Off by default:
	// the management surface is opt-in. See docs/CONTROL_PLANE.md.
	AdminService bool
	// AdminWeight is the initial advertised routing weight (default 1).
	// Operators change it at runtime through Admin.SetState.
	AdminWeight int
}

// ServerStats counts server-side work, for experiments.
type ServerStats struct {
	Envelopes      int64 // SOAP envelopes processed
	Requests       int64 // service invocations executed
	PackedMessages int64 // envelopes that used Parallel_Method
	Faults         int64 // whole-message faults returned
	ItemFaults     int64 // per-item faults inside packed responses
	DiffHits       int64 // differential-deserialization cache hits
	DiffMisses     int64 // differential-deserialization cache misses
	AppStage       stage.Stats

	// FaultCodes tallies emitted faults (whole-message and per-item) by
	// wire fault code, classified at the envelope edge by internal/fault.
	FaultCodes []fault.CodeCount

	// Resilience counts timeouts, cancellations and shed admissions
	// observed by the server's guards.
	Resilience metrics.ResilienceSummary

	// Protocol-thread phase timings per envelope.
	ParsePhase    metrics.Summary
	DispatchPhase metrics.Summary
	EncodePhase   metrics.Summary

	// EncodeIO is the byte and time volume of the response-encode stage
	// (encode.bytes / encode.ns), across both the buffered and the
	// streamed assemblers.
	EncodeIO metrics.StageIOSummary

	// Operations holds per-operation execution timings, keyed
	// "Service.operation".
	Operations map[string]metrics.Summary
}

// Server is the SPI service host: an HTTP server whose protocol goroutines
// parse SOAP, dispatch operation executions to the application stage, and
// assemble responses.
type Server struct {
	cfg        ServerConfig
	httpSrv    *httpx.Server
	appPool    stage.Executor
	controller *stage.Controller // nil unless AdaptiveAppStage
	protSem    chan struct{}     // nil when ProtocolWorkers == 0
	diff       *diffCache        // nil unless DifferentialDeserialization
	adminState *admin.State      // nil unless AdminService

	envelopes  atomic.Int64
	requests   atomic.Int64
	packed     atomic.Int64
	faults     atomic.Int64
	itemFaults atomic.Int64
	faultCodes fault.Counters
	resil      metrics.Resilience

	// Per-phase protocol-thread timings, for the overhead-breakdown
	// experiment: SOAP parse, dispatch+execute, response encode.
	phaseParse    metrics.Histogram
	phaseDispatch metrics.Histogram
	phaseEncode   metrics.Histogram
	encodeIO      metrics.StageIO

	// Per-operation execution timings, copy-on-write: app workers read the
	// current map without a lock, and only the first execution of an
	// operation takes opMu to publish a grown copy. Keyed by a struct so
	// the hot-path lookup never builds a "Service.operation" string; Stats
	// renders the dotted form only when a snapshot is taken.
	opMu    sync.Mutex
	opStats atomic.Pointer[map[opKey]*metrics.Histogram]
}

// opKey identifies one operation of one service.
type opKey struct{ service, op string }

// NewServer builds a server from the configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Container == nil {
		return nil, fmt.Errorf("core: ServerConfig.Container is required")
	}
	if cfg.AppWorkers <= 0 {
		cfg.AppWorkers = 32
	}
	if cfg.AppQueue <= 0 {
		cfg.AppQueue = 1024
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/services/"
	}
	if !strings.HasSuffix(cfg.PathPrefix, "/") {
		cfg.PathPrefix += "/"
	}
	s := &Server{cfg: cfg}
	if !cfg.Coupled {
		if cfg.AdaptiveAppStage {
			min := cfg.AppWorkersMin
			if min <= 0 {
				min = 2
			}
			pool, err := stage.NewAdaptivePool("app", min, cfg.AppWorkers, cfg.AppQueue)
			if err != nil {
				return nil, err
			}
			s.appPool = pool
			s.controller = stage.NewController(pool)
		} else {
			pool, err := stage.NewPool("app", cfg.AppWorkers, cfg.AppQueue)
			if err != nil {
				return nil, err
			}
			s.appPool = pool
		}
	}
	if cfg.ProtocolWorkers > 0 {
		s.protSem = make(chan struct{}, cfg.ProtocolWorkers)
	}
	if cfg.DifferentialDeserialization {
		s.diff = newDiffCache(cfg.DiffCacheSize)
	}
	s.httpSrv = &httpx.Server{
		Handler:      s.handle,
		MaxBodyBytes: cfg.MaxBodyBytes,
		MaxPipeline:  cfg.PipelineWindow,
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
	}
	if cfg.AdminService {
		s.adminState = admin.NewState(int64(cfg.AdminWeight))
		if err := admin.Deploy(cfg.Container, s, s.adminState); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AdminState exposes the control-plane routing state (weight/drain), or nil
// when AdminService is off.
func (s *Server) AdminState() *admin.State { return s.adminState }

// AdminStats builds the control-plane snapshot the Admin service advertises.
// Usable (with weight 1, not draining) even when AdminService is off, so
// embedders can feed their own management surface.
func (s *Server) AdminStats() admin.Stats {
	st := s.Stats()
	out := admin.Stats{
		Role:       "server",
		Weight:     1,
		Workers:    int64(st.AppStage.Workers),
		Busy:       st.AppStage.Busy,
		QueueDepth: int64(st.AppStage.Queued),
		QueueCap:   int64(st.AppStage.QueueCap),
		Inflight:   st.AppStage.Busy + int64(st.AppStage.Queued),
		Envelopes:  st.Envelopes,
		Requests:   st.Requests,
		Packed:     st.PackedMessages,
		Faults:     st.Faults,
		ItemFaults: st.ItemFaults,
		DiffHits:   st.DiffHits,
		DiffMisses: st.DiffMisses,
		FaultCodes: admin.FaultCodes(st.FaultCodes),
	}
	if out.Idle = out.Workers - out.Busy; out.Idle < 0 {
		out.Idle = 0
	}
	if s.adminState != nil {
		out.Weight, out.Draining = s.adminState.Snapshot()
	}
	if len(st.Operations) > 0 {
		names := make([]string, 0, len(st.Operations))
		for name := range st.Operations {
			names = append(names, name)
		}
		sort.Strings(names)
		out.Ops = make([]admin.OpStat, 0, len(names))
		for _, name := range names {
			e := st.Operations[name].Export()
			out.Ops = append(out.Ops, admin.OpStat{
				Op: name, Count: e.Count, MeanUs: e.MeanUs,
				P50Us: e.P50Us, P90Us: e.P90Us, P99Us: e.P99Us,
			})
		}
	}
	return out
}

// HandleHTTP serves one already-parsed HTTP request through the full
// protocol path (tracing, deadline budget, dispatch, assembly) — the
// embedding hook the gateway uses to self-host its own Admin endpoint
// without a second listener.
func (s *Server) HandleHTTP(ctx context.Context, req *httpx.Request) *httpx.Response {
	return s.handle(ctx, req)
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// Close shuts down the HTTP server and drains the application stage.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.closePools()
	return err
}

// Shutdown drains gracefully: in-flight exchanges finish (up to the
// timeout), then connections close and the stages drain.
func (s *Server) Shutdown(timeout time.Duration) error {
	err := s.httpSrv.Shutdown(timeout)
	s.closePools()
	return err
}

func (s *Server) closePools() {
	if s.controller != nil {
		s.controller.Stop()
	}
	if s.appPool != nil {
		s.appPool.Close()
	}
}

// Stats returns a snapshot of server counters. Phase and per-operation
// latencies are digests of fixed-size histograms, so a snapshot costs the
// same however much traffic the server has served.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Envelopes:      s.envelopes.Load(),
		Requests:       s.requests.Load(),
		PackedMessages: s.packed.Load(),
		Faults:         s.faults.Load(),
		ItemFaults:     s.itemFaults.Load(),
	}
	if s.appPool != nil {
		st.AppStage = s.appPool.PoolStats()
	}
	if s.diff != nil {
		st.DiffHits, st.DiffMisses = s.diff.stats()
	}
	st.FaultCodes = s.faultCodes.Snapshot()
	st.Resilience = s.resil.Snapshot()
	st.ParsePhase = s.phaseParse.Summary()
	st.DispatchPhase = s.phaseDispatch.Summary()
	st.EncodePhase = s.phaseEncode.Summary()
	st.EncodeIO = s.encodeIO.Snapshot()
	if ops := s.opStats.Load(); ops != nil {
		st.Operations = make(map[string]metrics.Summary, len(*ops))
		for k, h := range *ops {
			st.Operations[k.service+"."+k.op] = h.Summary()
		}
	}
	return st
}

// recordOp accumulates one operation execution time.
func (s *Server) recordOp(service, op string, d time.Duration) {
	key := opKey{service, op}
	if ops := s.opStats.Load(); ops != nil {
		if h := (*ops)[key]; h != nil {
			h.Observe(d)
			return
		}
	}
	s.opHistogram(key).Observe(d)
}

// opHistogram returns key's histogram, publishing a copy of the op map
// that holds a new one if key has none yet.
func (s *Server) opHistogram(key opKey) *metrics.Histogram {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	var cur map[opKey]*metrics.Histogram
	if ops := s.opStats.Load(); ops != nil {
		if h := (*ops)[key]; h != nil {
			return h
		}
		cur = *ops
	}
	next := make(map[opKey]*metrics.Histogram, len(cur)+1)
	for k, h := range cur {
		next[k] = h
	}
	h := &metrics.Histogram{}
	next[key] = h
	s.opStats.Store(&next)
	return h
}

// handle is the protocol-stage entry point: it runs on the connection's
// goroutine (the paper's protocol-processing thread). ctx is the
// transport's request context: cancelled when the client disconnects or
// the server shuts down, further bounded here by any SPI-Deadline budget
// the client propagated.
func (s *Server) handle(ctx context.Context, req *httpx.Request) *httpx.Response {
	if s.protSem != nil {
		s.protSem <- struct{}{}
		defer func() { <-s.protSem }()
	}

	if req.Method == "GET" {
		if s.cfg.DebugEndpoints && strings.HasPrefix(req.Target, debugPathPrefix) {
			return s.handleDebug(req)
		}
		return s.handleGet(req)
	}
	if req.Method != "POST" {
		resp := httpx.NewResponse(405, []byte("SOAP endpoint: POST only\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	defaultService, ok := s.serviceFromPath(req.Target)
	if !ok {
		resp := httpx.NewResponse(404, []byte("no such endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}

	// Adopt the client's trace id (SPI-Trace) or start a server-local
	// trace, so every span below correlates.
	tr := s.cfg.Tracer
	if tr.Enabled() {
		tid := traceID(req)
		if tid == 0 {
			tid = tr.Begin()
		}
		ctx = trace.NewContext(ctx, tid)
	}

	// Zero-allocation fast path: arena-backed decode with streaming packed
	// dispatch. Requires buffered-envelope features to be off (see
	// canStream); responses are byte-identical with the path below.
	if s.canStream() {
		return s.handleStream(ctx, req, defaultService)
	}

	parseStart := time.Now()
	var env *soap.Envelope
	var err error
	if s.diff != nil {
		env, err = s.diff.decode(req.Body)
	} else {
		env, err = soap.Decode(bytes.NewReader(req.Body))
	}
	parseDur := time.Since(parseStart)
	s.phaseParse.Observe(parseDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageProtocol,
			ID: -1, Op: req.Target, Start: parseStart, Service: parseDur})
	}
	if err != nil {
		var vm *soap.VersionMismatchError
		if errors.As(err, &vm) {
			// SOAP 1.1 §4.4: unrecognized envelope version.
			return s.faultResponse(&soap.Fault{Code: soap.FaultVersionMismatch, String: vm.Error()}, soap.V11)
		}
		return s.faultResponse(soap.ClientFault("malformed envelope: %v", err), soap.V11)
	}
	s.envelopes.Add(1)

	if fault := s.processHeaders(env, req.Body); fault != nil {
		return s.faultResponse(fault, env.Version)
	}

	// Apply the client's propagated deadline budget, shortened by the
	// grace period so a degraded (partial) response still reaches the
	// client before its own deadline fires.
	if budget := deadlineBudget(req); budget > 0 {
		grace := s.cfg.DeadlineGrace
		if grace <= 0 {
			grace = budget / 5
			if grace > 100*time.Millisecond {
				grace = 100 * time.Millisecond
			}
		}
		if budget > grace {
			budget -= grace
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	dispatchStart := time.Now()
	dispatcher := func(env *soap.Envelope) (*soap.Envelope, *soap.Fault) {
		return s.dispatch(ctx, env, defaultService, req.Target)
	}
	if len(s.cfg.Interceptors) > 0 {
		info := &RequestInfo{Target: req.Target, DefaultService: defaultService, Version: env.Version}
		dispatcher = buildChain(s.cfg.Interceptors, info, dispatcher)
	}
	respEnv, fault := dispatcher(env)
	dispatchDur := time.Since(dispatchStart)
	s.phaseDispatch.Observe(dispatchDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageDispatch,
			ID: -1, Op: req.Target, Start: dispatchStart, Service: dispatchDur})
	}
	if fault != nil {
		return s.faultResponse(fault, env.Version)
	}
	if respEnv == nil {
		return s.faultResponse(soap.ServerFault("interceptor returned no response"), env.Version)
	}
	// Reply in the version the request used.
	respEnv.Version = env.Version
	encodeStart := time.Now()
	resp := s.envelopeResponse(200, respEnv)
	encodeDur := time.Since(encodeStart)
	s.phaseEncode.Observe(encodeDur)
	s.encodeIO.Observe(len(resp.Body), encodeDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageAssemble,
			ID: -1, Op: req.Target, Start: encodeStart, Service: encodeDur})
	}
	return resp
}

// traceID parses the SPI-Trace header; zero means absent or malformed.
func traceID(req *httpx.Request) uint64 {
	v := req.Header.Get(HeaderTrace)
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// appTask wraps one application-stage task with a server.app span that
// splits queue wait (submit to worker pickup) from service time (the
// execution itself). With tracing disabled the task is returned untouched,
// so the hot path pays one branch and no timestamps.
func (s *Server) appTask(ctx context.Context, req *rpcRequest, run func()) stage.Task {
	tr := s.cfg.Tracer
	if !tr.Enabled() {
		return run
	}
	tid := trace.FromContext(ctx)
	submitted := time.Now()
	return func() {
		start := time.Now()
		run()
		tr.Record(trace.Span{Trace: tid, Stage: trace.StageApp, ID: req.id,
			Op: req.service + "." + req.op, Start: start,
			Queue: start.Sub(submitted), Service: time.Since(start)})
	}
}

// handleGet serves service descriptions: "GET <prefix><Service>?wsdl"
// returns the service's WSDL document, and a GET of the bare prefix lists
// the deployed services, mirroring what Axis offered on its endpoints.
func (s *Server) handleGet(req *httpx.Request) *httpx.Response {
	target := req.Target
	wantWSDL := false
	if i := strings.IndexByte(target, '?'); i >= 0 {
		wantWSDL = strings.EqualFold(target[i+1:], "wsdl")
		target = target[:i]
	}
	service, ok := s.serviceFromPath(target)
	if !ok {
		resp := httpx.NewResponse(404, []byte("no such endpoint\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	if service == "" {
		var b bytes.Buffer
		b.WriteString("Deployed services:\n")
		for _, svc := range s.cfg.Container.Services() {
			fmt.Fprintf(&b, "  %s%s?wsdl — %s\n", s.cfg.PathPrefix, svc.Name, svc.Doc)
		}
		resp := httpx.NewResponse(200, b.Bytes())
		resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
		return resp
	}
	svc, found := s.cfg.Container.Service(service)
	if !found {
		resp := httpx.NewResponse(404, []byte("no such service\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	if !wantWSDL {
		resp := httpx.NewResponse(200, []byte(fmt.Sprintf("%s — %s\nAppend ?wsdl for the service description.\n", svc.Name, svc.Doc)))
		resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
		return resp
	}
	var b bytes.Buffer
	if err := wsdl.Describe(svc, s.cfg.PathPrefix+svc.Name).WriteDocument(&b); err != nil {
		resp := httpx.NewResponse(500, []byte("wsdl generation failed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	resp := httpx.NewResponse(200, b.Bytes())
	resp.Header.Set("Content-Type", "text/xml; charset=utf-8")
	return resp
}

// serviceFromPath extracts the service name from the request target.
// "/services/Echo" -> "Echo"; the bare prefix ("/services" or "/services/")
// is the multi-service pack endpoint and yields an empty default service.
func (s *Server) serviceFromPath(target string) (string, bool) {
	trimmed := strings.TrimSuffix(s.cfg.PathPrefix, "/")
	if target == trimmed || target == s.cfg.PathPrefix {
		return "", true
	}
	if !strings.HasPrefix(target, s.cfg.PathPrefix) {
		return "", false
	}
	name := strings.TrimPrefix(target, s.cfg.PathPrefix)
	if name == "" || strings.Contains(name, "/") {
		return "", false
	}
	return name, true
}

// processHeaders runs header processors and enforces mustUnderstand on the
// buffered path. raw is the request document; the canonical body handed to
// processors is the verbatim spans of its body entries, scanned from raw —
// the same bytes the streaming path tees out of its decoder, so signature
// verification covers identical input no matter which path served the
// request.
func (s *Server) processHeaders(env *soap.Envelope, raw []byte) *soap.Fault {
	var bodyBytes []byte
	if len(s.cfg.HeaderProcessors) > 0 {
		var err error
		bodyBytes, err = soap.AppendRawBodyEntries(nil, raw)
		if err != nil {
			// Unreachable in practice: the envelope already parsed once.
			return soap.ClientFault("malformed envelope: %v", err)
		}
	}
	return s.verifyHeaders(env, bodyBytes)
}

// verifyHeaders runs header processors over the already-computed canonical
// body, then enforces mustUnderstand: a mustUnderstand block nobody
// recognises is a MustUnderstand fault, per SOAP 1.1 §4.2.3. Processors
// run first in both dispatch paths, so their faults take precedence.
func (s *Server) verifyHeaders(env *soap.Envelope, bodyBytes []byte) *soap.Fault {
	understood := make(map[*xmldom.Element]bool)
	for _, h := range env.Header {
		for _, p := range s.cfg.HeaderProcessors {
			ns, local := p.HeaderName()
			if h.Is(ns, local) {
				if err := p.ProcessHeader(h, bodyBytes); err != nil {
					return soap.ClientFault("header %s: %v", h.Name.Local, err)
				}
				understood[h] = true
			}
		}
	}
	for _, h := range env.MustUnderstandHeaders() {
		if !understood[h] {
			return &soap.Fault{
				Code:   soap.FaultMustUnderstand,
				String: fmt.Sprintf("header {%s}%s not understood", h.Namespace(), h.Name.Local),
			}
		}
	}
	return nil
}

// canonicalBody serializes the body entries compactly and in place — the
// byte string header signatures cover. A signer (our client) serializes
// entries exactly as it transmits them, and the server verifies against
// the verbatim wire spans of the received body entries, so the canonical
// form IS the wire form: no re-homing, no cloning, no second namespace
// context. Entries whose prefixes resolve through the standard envelope
// declarations serialize identically on both sides (ours always do).
func canonicalBody(env *soap.Envelope) []byte {
	var buf bytes.Buffer
	for _, e := range env.Body {
		_ = e.Serialize(&buf)
	}
	return buf.Bytes()
}

// deadlineBudget parses the SPI-Deadline header: the client's remaining
// deadline budget in integer milliseconds. Zero means no budget was
// propagated (or it was malformed, which is treated as absent).
func deadlineBudget(req *httpx.Request) time.Duration {
	v := req.Header.Get(HeaderDeadline)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// dispatch interprets the body and executes the request(s). This is the
// server-side dispatcher of §3.5 plus the assembler of §3.4. target is the
// HTTP request target, threaded through for EntryInterceptor info.
func (s *Server) dispatch(ctx context.Context, env *soap.Envelope, defaultService, target string) (*soap.Envelope, *soap.Fault) {
	if len(env.Body) != 1 {
		return nil, soap.ClientFault("expected exactly one body entry, got %d", len(env.Body))
	}
	entry := env.Body[0]

	rctx := &registry.Context{Ctx: ctx, RequestHeaders: env.Header}

	var einfo *EntryInfo
	if len(s.cfg.EntryInterceptors) > 0 {
		einfo = &EntryInfo{Target: target, DefaultService: defaultService, Version: env.Version}
	}

	if isPackedRequest(entry) {
		s.packed.Add(1)
		return s.dispatchPacked(ctx, entry, rctx, defaultService, einfo)
	}
	if einfo != nil {
		// Single call (plain or plan): the entry hook runs exactly once,
		// mirroring the streaming path.
		repl, fault := runEntryInterceptors(s.cfg.EntryInterceptors, entry, einfo)
		if fault != nil {
			return nil, fault
		}
		entry = repl
	}
	if isPlanBody(entry) {
		return s.dispatchPlan(ctx, entry, rctx, defaultService)
	}
	return s.dispatchSingle(ctx, entry, rctx, defaultService)
}

// submitApp enqueues one application-stage task, applying the admission
// timeout when configured. With no timeout the submit blocks until queue
// space frees (the seed behaviour).
func (s *Server) submitApp(task stage.Task) error {
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Gauge("app.queue").Set(int64(s.appPool.QueueLen()))
	}
	if s.cfg.AdmissionTimeout > 0 {
		return s.appPool.SubmitTimeout(task, s.cfg.AdmissionTimeout)
	}
	return s.appPool.Submit(task)
}

// admissionFault maps a failed submit to a fault: a full queue past the
// admission timeout is shed with Server.Busy (retryable — the operation
// never started); anything else is a plain server fault.
func (s *Server) admissionFault(err error) *soap.Fault {
	if errors.Is(err, stage.ErrQueueFull) {
		s.resil.Shed.Inc()
		return fault.ToSOAP(fault.Shedf(
			"application stage queue full after %v admission wait", s.cfg.AdmissionTimeout))
	}
	return soap.ServerFault("application stage unavailable: %v", err)
}

// abandonResult fabricates the per-item fault for work the protocol thread
// stopped waiting on: Server.Timeout when the envelope deadline expired,
// Server.Cancelled when the caller went away. The worker (if it started)
// keeps running detached; its handler sees the cancelled Context and
// should abort.
func (s *Server) abandonResult(ctx context.Context, req *rpcRequest) *rpcResult {
	res := &rpcResult{id: req.id, service: req.service, op: req.op}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.resil.Timeouts.Inc()
		res.fault = fault.ToSOAP(fault.Timeoutf(
			"deadline expired before %s.%s finished", req.service, req.op).
			With(fault.KeyOp, req.service+"."+req.op))
	} else {
		s.resil.Cancellations.Inc()
		res.fault = fault.ToSOAP(fault.Cancelledf(
			"caller cancelled before %s.%s finished", req.service, req.op).
			With(fault.KeyOp, req.service+"."+req.op))
	}
	return res
}

// dispatchSingle executes a traditional one-request envelope.
func (s *Server) dispatchSingle(ctx context.Context, entry *xmldom.Element, rctx *registry.Context, defaultService string) (*soap.Envelope, *soap.Fault) {
	service := defaultService
	if service == "" {
		// Pack endpoint used for a plain request: resolve by namespace.
		if svc, ok := s.cfg.Container.ServiceByNamespace(entry.Namespace()); ok {
			service = svc.Name
		}
	}
	req, fault := decodeRequestElement(entry, service, 0)
	if fault != nil {
		return nil, fault
	}
	var res *rpcResult
	if s.cfg.Coupled || s.appPool == nil || (s.adminState != nil && req.service == admin.ServiceName) {
		// Traditional coupled architecture: execute on the protocol thread.
		// Control-plane (Admin) operations take the same inline path even
		// when staged: they only read counters or flip atomics, and they
		// must stay answerable while the application stage is saturated —
		// a GetStats poll that queues behind the very backlog it is meant
		// to report would go stale exactly when the gateway needs it most.
		res = s.execute(ctx, req, rctx)
	} else {
		// Staged architecture: even a single request runs on the
		// application stage; the protocol thread sleeps until it is done
		// or the request's deadline fires.
		done := make(chan *rpcResult, 1)
		task := s.appTask(ctx, req, func() { done <- s.execute(ctx, req, rctx) })
		if err := s.submitApp(task); err != nil {
			return nil, s.admissionFault(err)
		}
		select {
		case res = <-done:
		case <-ctx.Done():
			res = s.abandonResult(ctx, req)
		}
	}
	if res.fault != nil {
		return nil, res.fault
	}
	ns := s.namespaceOf(req.service)
	respEl, err := encodeResponseElement(ns, req.op, res.results)
	if err != nil {
		return nil, soap.ServerFault("encoding response: %v", err)
	}
	out := soap.New()
	out.Header = rctx.ResponseHeaders()
	out.AddBody(respEl)
	return out, nil
}

// packedDone carries one finished execution back to the protocol thread
// with the slot it belongs to in the response.
type packedDone struct {
	slot int
	res  *rpcResult
}

// dispatchPacked fans a Parallel_Method message out to the application
// stage and assembles the packed response. The protocol goroutine sleeps
// until the last worker finishes — the sleep/wake handoff of §3.3 — or
// until the envelope's deadline fires, in which case it degrades: slots
// whose work has not completed become per-item Server.Timeout faults while
// completed companions keep their real results. The done channel is
// buffered to len(entries) so abandoned workers complete their sends
// harmlessly after the protocol thread has moved on.
func (s *Server) dispatchPacked(ctx context.Context, pm *xmldom.Element, rctx *registry.Context, defaultService string, einfo *EntryInfo) (*soap.Envelope, *soap.Fault) {
	entries := pm.ChildElements()
	if len(entries) == 0 {
		return nil, soap.ClientFault("%s has no requests", ElemParallelMethod)
	}

	results := make([]*rpcResult, len(entries))
	reqs := make([]*rpcRequest, len(entries))
	done := make(chan packedDone, len(entries))
	pending := 0
	for i, el := range entries {
		if einfo != nil {
			ei := *einfo
			ei.Index, ei.Packed = i, true
			repl, fault := runEntryInterceptors(s.cfg.EntryInterceptors, el, &ei)
			if fault != nil {
				results[i] = &rpcResult{id: i, fault: fault}
				continue
			}
			el = repl
		}
		req, fault := decodeRequestElement(el, defaultService, i)
		if fault != nil {
			results[i] = &rpcResult{id: i, fault: fault}
			continue
		}
		reqs[i] = req
		if s.cfg.Coupled || s.appPool == nil {
			// Traditional architecture: execute serially on this thread,
			// degrading the remainder once the deadline has passed.
			if ctx.Err() != nil {
				results[i] = s.abandonResult(ctx, req)
				continue
			}
			results[i] = s.execute(ctx, req, rctx)
			continue
		}
		slot, r := i, req
		task := s.appTask(ctx, r, func() { done <- packedDone{slot, s.execute(ctx, r, rctx)} })
		if err := s.submitApp(task); err != nil {
			sf := s.admissionFault(err)
			results[i] = &rpcResult{id: req.id, service: req.service, op: req.op, fault: sf}
			continue
		}
		pending++
	}
	for pending > 0 {
		select {
		case d := <-done:
			results[d.slot] = d.res
			pending--
		case <-ctx.Done():
			// Degrade: take whatever has already completed, then turn the
			// unfinished slots into per-item deadline faults.
			for drained := false; !drained; {
				select {
				case d := <-done:
					results[d.slot] = d.res
					pending--
				default:
					drained = true
				}
			}
			for i, r := range results {
				if r == nil {
					results[i] = s.abandonResult(ctx, reqs[i])
				}
			}
			pending = 0
		}
	}

	for _, r := range results {
		if r.fault != nil {
			s.itemFaults.Add(1)
			s.faultCodes.NoteSOAP(r.fault)
		}
	}
	respEl, err := buildPackedResponse(results, s.namespaceOf)
	if err != nil {
		return nil, soap.ServerFault("assembling packed response: %v", err)
	}
	out := soap.New()
	out.Header = rctx.ResponseHeaders()
	out.AddBody(respEl)
	return out, nil
}

// execute resolves and invokes one operation. In staged mode it is called
// on an application-stage worker; in coupled mode on the protocol thread.
// The handler receives ctx (bounded by OperationTimeout when configured)
// through registry.Context.Ctx; when the watchdog fires the result is a
// Server.Timeout fault and the handler runs detached until it observes the
// cancellation.
func (s *Server) execute(ctx context.Context, req *rpcRequest, rctx *registry.Context) *rpcResult {
	// The result and the invocation context have the same lifetime, so one
	// heap object carries both — with sixteen-entry packed envelopes the
	// saved allocation is measurable.
	frame := &struct {
		res rpcResult
		inv registry.Context
	}{res: rpcResult{id: req.id, service: req.service, op: req.op}}
	res := &frame.res
	op, lookupFault := s.cfg.Container.Lookup(req.service, req.op)
	if lookupFault != nil {
		res.fault = lookupFault
		return res
	}
	s.requests.Add(1)
	opCtx := ctx
	var cancel context.CancelFunc
	if d := s.cfg.OperationTimeout; d > 0 {
		// The watchdog deadline rides the shared timing wheel: O(1)
		// schedule/cancel with no runtime-timer churn per operation, at
		// the cost of firing up to one wheel tick late. The wheel context
		// yields the same context.DeadlineExceeded/Canceled sentinels, so
		// fault classification (and its pinned texts) is unchanged.
		opCtx, cancel = httpx.WheelTimeout(ctx, httpx.DefaultWheel(), d)
	}
	invCtx := &frame.inv
	*invCtx = registry.Context{
		Ctx:            opCtx,
		Service:        req.service,
		Operation:      req.op,
		RequestHeaders: rctx.RequestHeaders,
	}
	execStart := time.Now()
	if cancel == nil {
		// No per-operation deadline: invoke inline.
		results, fault := registry.Invoke(op, invCtx, req.params)
		s.recordOp(req.service, req.op, time.Since(execStart))
		return s.finishExecute(res, rctx, invCtx, results, fault)
	}
	// Per-operation watchdog: invoke on a helper goroutine so an
	// overrunning handler cannot hold this worker past its deadline.
	type outcome struct {
		results []soapenc.Field
		fault   *soap.Fault
	}
	ch := make(chan outcome, 1)
	go func() {
		r, f := registry.Invoke(op, invCtx, req.params)
		ch <- outcome{r, f}
	}()
	select {
	case o := <-ch:
		// Classify the outcome before cancel(): cancelling first would make
		// finishExecute read a context error we caused ourselves and rewrite
		// a genuine application fault as Server.Cancelled.
		s.recordOp(req.service, req.op, time.Since(execStart))
		out := s.finishExecute(res, rctx, invCtx, o.results, o.fault)
		cancel()
		return out
	case <-opCtx.Done():
		cancel()
		s.recordOp(req.service, req.op, time.Since(execStart))
		if errors.Is(ctx.Err(), context.Canceled) {
			s.resil.Cancellations.Inc()
			res.fault = fault.ToSOAP(fault.Cancelledf(
				"caller cancelled %s.%s", req.service, req.op).
				With(fault.KeyOp, req.service+"."+req.op))
		} else {
			s.resil.Timeouts.Inc()
			res.fault = fault.ToSOAP(fault.Timeoutf(
				"operation %s.%s exceeded its deadline", req.service, req.op).
				With(fault.KeyOp, req.service+"."+req.op))
		}
		return res
	}
}

// finishExecute folds an invocation outcome into the rpc result and
// propagates any response headers the handler contributed. A generic
// Server fault from a handler whose context had already expired is
// reclassified as the matching deadline/cancel fault — the handler aborted
// because we told it to, and the client should see that, not an opaque
// "context deadline exceeded".
func (s *Server) finishExecute(res *rpcResult, rctx, invCtx *registry.Context, results []soapenc.Field, sf *soap.Fault) *rpcResult {
	if sf != nil {
		if sf.Code == soap.FaultServer {
			switch invCtx.Context().Err() {
			case context.DeadlineExceeded:
				s.resil.Timeouts.Inc()
				sf = fault.ToSOAP(fault.Timeoutf(
					"deadline expired before %s.%s finished", res.service, res.op).
					With(fault.KeyOp, res.service+"."+res.op))
			case context.Canceled:
				s.resil.Cancellations.Inc()
				sf = fault.ToSOAP(fault.Cancelledf(
					"caller cancelled before %s.%s finished", res.service, res.op).
					With(fault.KeyOp, res.service+"."+res.op))
			}
		}
		res.fault = sf
		return res
	}
	res.results = results
	for _, h := range invCtx.ResponseHeaders() {
		rctx.AddResponseHeader(h)
	}
	return res
}

// namespaceOf returns the namespace of a deployed service, or the pack
// namespace for unknown services (only reachable for faulted entries,
// which do not use it).
func (s *Server) namespaceOf(service string) string {
	if svc, ok := s.cfg.Container.Service(service); ok {
		return svc.Namespace
	}
	return NSPack
}

// faultResponse wraps a fault in an envelope with HTTP 500, per the SOAP
// HTTP binding, in the requested envelope version.
func (s *Server) faultResponse(f *soap.Fault, v soap.Version) *httpx.Response {
	s.faults.Add(1)
	s.faultCodes.NoteSOAP(f)
	return s.envelopeResponse(500, f.EnvelopeFor(v))
}

// envelopeResponse serializes an envelope into a pooled buffer. The
// response body aliases that buffer; the transport releases it (via
// Response.Release) once the bytes have been written to the connection.
func (s *Server) envelopeResponse(status int, env *soap.Envelope) *httpx.Response {
	enc := soap.NewStreamEncoder()
	body, err := enc.EncodeEnvelope(env)
	if err != nil {
		enc.Release()
		return encodeFailureResponse()
	}
	resp := httpx.NewResponse(status, body)
	resp.Header.Set("Content-Type", env.Version.ContentType())
	resp.SetRelease(enc.Release)
	return resp
}

// encodeFailureResponse is the plain-text 500 returned when response
// serialization itself fails.
func encodeFailureResponse() *httpx.Response {
	resp := httpx.NewResponse(500, []byte("response encoding failed\n"))
	resp.Header.Set("Content-Type", "text/plain")
	return resp
}
