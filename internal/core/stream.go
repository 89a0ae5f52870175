package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/xmldom"
)

// The streaming fast path decodes the request envelope from a pooled arena
// and, for packed messages, dispatches each Parallel_Method entry to the
// application stage as soon as its subtree closes — parse and execution
// overlap instead of running back to back on the protocol thread.
//
// It preserves the buffered path's responses byte for byte. The one
// observable difference is side-effect timing: a request whose envelope
// turns out to be malformed — or whose security header fails verification —
// *after* well-formed packed entries gets the same whole-message fault the
// buffered path returns, but those early entries have already executed
// (idempotency is the application's concern, as with any at-least-once
// delivery). The features that used to force the buffered path now operate
// at entry/token granularity instead:
//
//   - differential deserialization hashes each entry's raw subtree span as
//     the decoder consumes it, cloning cached parses into the arena on hits
//     (see diffCache);
//   - EntryInterceptors hook each entry as its subtree closes;
//   - header processors (WSSE) verify over the verbatim body spans teed out
//     of the decoder, concurrently with entry dispatch, and fail the batch
//     before any response bytes are emitted.
//
// Only whole-envelope Interceptors — and the explicit BufferedDispatch
// opt-out — still fall back to the buffered path.

// canStream reports whether the streaming fast path applies to this server.
func (s *Server) canStream() bool {
	return !s.cfg.BufferedDispatch && len(s.cfg.Interceptors) == 0
}

// handleStream is the streaming counterpart of the parse/dispatch/encode
// section of handle. The request arena is released when the response bytes
// have been assembled; everything that outlives the exchange (decoded
// params, header clones, response elements) is copied out by then.
func (s *Server) handleStream(ctx context.Context, req *httpx.Request, defaultService string) *httpx.Response {
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)
	tr := s.cfg.Tracer

	parseStart := time.Now()
	d := soap.AcquireStreamDecoder(req.Body, arena)
	defer d.Release()
	err := d.ReadPreamble()
	parseDur := time.Since(parseStart)
	s.phaseParse.Observe(parseDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageProtocol,
			ID: -1, Op: req.Target, Start: parseStart, Service: parseDur})
	}
	if err != nil {
		return s.decodeErrorResponse(err)
	}
	env := d.Envelope()
	s.envelopes.Add(1)

	// Header verification is deferred until the body has been consumed: the
	// processors' canonical input is the verbatim body spans the decoder tees
	// out, and the buffered path's fault precedence (malformed envelope
	// before any header fault) requires the whole document validated first.
	// Streamed entries cross into application-stage workers that can outlive
	// the request (degrade path); the arena-backed header elements must not.
	headers := cloneHeaders(env.Header)

	if budget := deadlineBudget(req); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.shortenBudget(budget))
		defer cancel()
	}

	dispatchStart := time.Now()
	resp, respEnv, encInDispatch, fault := s.dispatchStream(ctx, d, arena, headers, defaultService, req.Target, env.Version)
	// Encoding interleaved with the dispatch (the streamed assembler) is
	// attributed to the encode phase, not the dispatch phase.
	dispatchDur := time.Since(dispatchStart) - encInDispatch
	s.phaseDispatch.Observe(dispatchDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageDispatch,
			ID: -1, Op: req.Target, Start: dispatchStart, Service: dispatchDur})
	}
	if fault != nil {
		return s.faultResponse(fault, env.Version)
	}
	if resp != nil {
		// Streamed assembly already produced the response bytes.
		s.phaseEncode.Observe(encInDispatch)
		s.encodeIO.Observe(len(resp.Body), encInDispatch)
		if tr.Enabled() {
			tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageAssemble,
				ID: -1, Op: req.Target, Start: dispatchStart, Service: encInDispatch})
		}
		return resp
	}

	respEnv.Version = env.Version
	encodeStart := time.Now()
	resp = s.envelopeResponse(200, respEnv)
	encodeDur := time.Since(encodeStart)
	s.phaseEncode.Observe(encodeDur)
	s.encodeIO.Observe(len(resp.Body), encodeDur)
	if tr.Enabled() {
		tr.Record(trace.Span{Trace: trace.FromContext(ctx), Stage: trace.StageAssemble,
			ID: -1, Op: req.Target, Start: encodeStart, Service: encodeDur})
	}
	return resp
}

// decodeErrorResponse maps a decode error to the fault the buffered path
// produces: VersionMismatch for foreign envelope namespaces, Client
// malformed-envelope otherwise, both in a SOAP 1.1 response.
func (s *Server) decodeErrorResponse(err error) *httpx.Response {
	if vm, ok := err.(*soap.VersionMismatchError); ok {
		return s.faultResponse(&soap.Fault{Code: soap.FaultVersionMismatch, String: vm.Error()}, soap.V11)
	}
	return s.faultResponse(soap.ClientFault("malformed envelope: %v", err), soap.V11)
}

// shortenBudget applies the DeadlineGrace policy to a propagated budget.
func (s *Server) shortenBudget(budget time.Duration) time.Duration {
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
	return budget
}

// cloneHeaders deep-copies header blocks off the request arena. Clone also
// pulls inherited namespace declarations onto the copies, so they resolve
// identically without their (arena-owned) ancestors.
func cloneHeaders(hs []*xmldom.Element) []*xmldom.Element {
	if len(hs) == 0 {
		return nil
	}
	out := make([]*xmldom.Element, len(hs))
	for i, h := range hs {
		out[i] = h.Clone()
	}
	return out
}

// dispatchStream routes the body. A packed body streams entry by entry
// and returns a ready HTTP response assembled incrementally; anything else
// completes the envelope — consulting the per-entry differential cache —
// verifies headers, and falls back to the buffered dispatcher (which keeps
// single-request and plan semantics and their error messages in one place),
// returning the envelope for the caller to encode. encDur is the time the
// packed path spent encoding, for phase attribution.
func (s *Server) dispatchStream(ctx context.Context, d *soap.StreamDecoder, arena *xmldom.Arena, headers []*xmldom.Element, defaultService, target string, v soap.Version) (*httpx.Response, *soap.Envelope, time.Duration, *soap.Fault) {
	entry, err := d.NextEntryStart()
	if err != nil {
		return nil, nil, 0, soap.ClientFault("malformed envelope: %v", err)
	}
	rctx := &registry.Context{Ctx: ctx, RequestHeaders: headers}
	if entry != nil && isPackedRequest(entry) {
		s.packed.Add(1)
		resp, encDur, fault := s.dispatchPackedStream(ctx, d, entry, rctx, defaultService, target, v)
		return resp, nil, encDur, fault
	}
	// Not packed: nothing to overlap, so finish decoding and fall back.
	if entry != nil {
		if s.diff != nil {
			raw, err := d.CompleteEntrySpan(entry)
			if err != nil {
				return nil, nil, 0, soap.ClientFault("malformed envelope: %v", err)
			}
			rootTag, bodyTag := d.RawContext()
			key := subtreeKey(contextSum(rootTag, bodyTag), raw)
			if cached := s.diff.lookup(key); cached != nil {
				d.ReplaceEntry(entry, cached.CloneInArena(arena))
			} else {
				parsed, perr := xmldom.ParseBytesInArena(raw, arena)
				if perr != nil {
					return nil, nil, 0, soap.ClientFault("malformed envelope: %v", perr)
				}
				d.ReplaceEntry(entry, parsed)
				// Clone after attaching: that pulls inherited namespace
				// declarations onto the stored copy, so a future hit resolves
				// identically without its ancestors.
				s.diff.insert(key, parsed.Clone())
			}
		} else if err := d.CompleteEntry(entry); err != nil {
			return nil, nil, 0, soap.ClientFault("malformed envelope: %v", err)
		}
	}
	env, err := d.Finish()
	if err != nil {
		return nil, nil, 0, soap.ClientFault("malformed envelope: %v", err)
	}
	// Verify headers now that the document is known well-formed, over the
	// verbatim received spans — the same bytes the buffered path extracts.
	var canonical []byte
	if len(s.cfg.HeaderProcessors) > 0 {
		canonical = canonicalFromSpans(d.BodySpans())
	}
	if fault := s.verifyHeaders(env, canonical); fault != nil {
		return nil, nil, 0, fault
	}
	env.Header = headers
	respEnv, fault := s.dispatch(ctx, env, defaultService, target)
	return nil, respEnv, 0, fault
}

// canonicalFromSpans concatenates the decoder's body spans into the
// canonical body the header processors verify. The overwhelmingly common
// single-span case is zero-copy.
func canonicalFromSpans(spans [][]byte) []byte {
	if len(spans) == 1 {
		return spans[0]
	}
	n := 0
	for _, sp := range spans {
		n += len(sp)
	}
	out := make([]byte, 0, n)
	for _, sp := range spans {
		out = append(out, sp...)
	}
	return out
}

// streamCollector gathers results from application-stage workers when the
// total entry count is unknown at submit time (entries are still being
// parsed). deliver is safe from detached workers that finish after the
// protocol thread degraded their slot: a slot only accepts its first write.
type streamCollector struct {
	mu        sync.Mutex
	results   []*rpcResult
	completed int
	wake      chan struct{}
}

func newStreamCollector() *streamCollector {
	return &streamCollector{
		results: make([]*rpcResult, 0, 8),
		wake:    make(chan struct{}, 1),
	}
}

// addSlot reserves the next response slot.
func (c *streamCollector) addSlot() int {
	c.mu.Lock()
	slot := len(c.results)
	c.results = append(c.results, nil)
	c.mu.Unlock()
	return slot
}

// fill stores a result produced on the protocol thread (decode faults,
// admission faults, coupled-mode executions).
func (c *streamCollector) fill(slot int, res *rpcResult) {
	c.mu.Lock()
	c.results[slot] = res
	c.mu.Unlock()
}

// deliver stores a worker's result and nudges the protocol thread.
func (c *streamCollector) deliver(slot int, res *rpcResult) {
	c.mu.Lock()
	if c.results[slot] == nil {
		c.results[slot] = res
		c.completed++
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// wait blocks until want worker deliveries have landed or ctx is done,
// reporting whether it was the deadline that ended the wait.
func (c *streamCollector) wait(ctx context.Context, want int) (degraded bool) {
	for {
		c.mu.Lock()
		done := c.completed
		c.mu.Unlock()
		if done >= want {
			return false
		}
		select {
		case <-c.wake:
		case <-ctx.Done():
			return true
		}
	}
}

// waitSlot blocks until the given slot holds a result or ctx is done,
// reporting whether it was the deadline that ended the wait. This is the
// reorder window's park: the assembler only ever waits on the slot at the
// window head.
func (c *streamCollector) waitSlot(ctx context.Context, slot int) (degraded bool) {
	for {
		c.mu.Lock()
		filled := c.results[slot] != nil
		c.mu.Unlock()
		if filled {
			return false
		}
		select {
		case <-c.wake:
		case <-ctx.Done():
			return true
		}
	}
}

// dispatchPackedStream is dispatchPacked fused with decoding on the way in
// and assembly on the way out: each Parallel_Method entry is enqueued the
// moment its subtree closes, so the first operations run while later
// entries are still being tokenized, and each entry's response bytes are
// written to the pooled response buffer the moment the reorder window's
// head slot completes — the protocol thread never holds a response DOM.
// When the envelope deadline fires it degrades unfinished slots to
// per-item faults exactly as the buffered path does; differential tests
// pin the bytes identical under randomized completion orders.
func (s *Server) dispatchPackedStream(ctx context.Context, d *soap.StreamDecoder, pm *xmldom.Element, rctx *registry.Context, defaultService, target string, v soap.Version) (*httpx.Response, time.Duration, *soap.Fault) {
	col := newStreamCollector()
	asm := newPackedAssembler()
	asm.faultCodes = &s.faultCodes
	defer asm.release()
	reqs := make([]*rpcRequest, 0, 8)
	arena := d.Arena()

	var ctxSum [32]byte
	if s.diff != nil {
		rootTag, bodyTag := d.RawContext()
		ctxSum = contextSum(rootTag, bodyTag, d.EntryStartTag())
	}
	var einfo *EntryInfo
	if len(s.cfg.EntryInterceptors) > 0 {
		einfo = &EntryInfo{Target: target, DefaultService: defaultService, Version: v, Packed: true}
	}

	for {
		var el *xmldom.Element
		var err error
		if s.diff != nil {
			// Per-entry differential deserialization: hash the raw subtree
			// span as the tokenizer consumes it; a hit clones the cached
			// parse into the arena without building the DOM again.
			var raw []byte
			raw, err = d.NextChildSpan(pm)
			if err == nil && raw != nil {
				key := subtreeKey(ctxSum, raw)
				if cached := s.diff.lookup(key); cached != nil {
					el = cached.CloneInArena(arena)
					pm.AddChild(el)
				} else {
					el, err = xmldom.ParseBytesInArena(raw, arena)
					if err == nil {
						pm.AddChild(el)
						// Clone after attaching, so inherited namespace
						// declarations bake onto the stored copy.
						s.diff.insert(key, el.Clone())
					}
				}
			}
		} else {
			el, err = d.NextChild(pm)
		}
		if err != nil {
			return nil, asm.encDur, soap.ClientFault("malformed envelope: %v", err)
		}
		if el == nil {
			break
		}
		i := col.addSlot()
		if einfo != nil {
			ei := *einfo
			ei.Index = i
			repl, fault := runEntryInterceptors(s.cfg.EntryInterceptors, el, &ei)
			if fault != nil {
				reqs = append(reqs, nil)
				col.fill(i, &rpcResult{id: i, fault: fault})
				continue
			}
			el = repl
		}
		req, fault := decodeRequestElement(el, defaultService, i)
		reqs = append(reqs, req)
		if fault != nil {
			col.fill(i, &rpcResult{id: i, fault: fault})
			continue
		}
		if s.cfg.Coupled || s.appPool == nil {
			// Traditional architecture: serial execution as entries arrive,
			// degrading the remainder once the deadline has passed.
			if ctx.Err() != nil {
				col.fill(i, s.abandonResult(ctx, req))
				continue
			}
			col.fill(i, s.execute(ctx, req, rctx))
			continue
		}
		slot, r := i, req
		task := s.appTask(ctx, r, func() { col.deliver(slot, s.execute(ctx, r, rctx)) })
		if err := s.submitApp(task); err != nil {
			col.fill(i, &rpcResult{id: req.id, service: req.service, op: req.op, fault: s.admissionFault(err)})
		}
	}
	// Validate the rest of the document before encoding anything: a
	// malformed tail must produce the buffered path's whole-message fault,
	// which takes precedence over everything else. Late workers deliver
	// into the collector harmlessly — they hold copies, never arena nodes.
	extra := 0
	for {
		el, err := d.NextEntryStart()
		if err != nil {
			return nil, asm.encDur, soap.ClientFault("malformed envelope: %v", err)
		}
		if el == nil {
			break
		}
		extra++
		if err := d.CompleteEntry(el); err != nil {
			return nil, asm.encDur, soap.ClientFault("malformed envelope: %v", err)
		}
	}
	env, err := d.Finish()
	if err != nil {
		return nil, asm.encDur, soap.ClientFault("malformed envelope: %v", err)
	}

	// Header verification, now that the document is known well-formed.
	// The buffered path verifies headers before dispatch, so its fault
	// precedence is header fault > extra-entry fault > dispatch faults.
	// With processors configured the (crypto-heavy) verification runs on
	// its own goroutine, overlapped with the assembly drain below, and is
	// joined before any return — the batch fails before response bytes
	// leave, entries that already executed notwithstanding. The
	// mustUnderstand-only case is cheap enough to check inline.
	var hdrCh chan *soap.Fault
	if len(s.cfg.HeaderProcessors) > 0 {
		canonical := canonicalFromSpans(d.BodySpans())
		hdrCh = make(chan *soap.Fault, 1)
		go func() { hdrCh <- s.verifyHeaders(env, canonical) }()
	} else if fault := s.verifyHeaders(env, nil); fault != nil {
		return nil, asm.encDur, fault
	}
	// Exactly one return path runs, so joinHeaders receives at most once.
	joinHeaders := func() *soap.Fault {
		if hdrCh == nil {
			return nil
		}
		return <-hdrCh
	}
	if extra > 0 {
		if fault := joinHeaders(); fault != nil {
			return nil, asm.encDur, fault
		}
		return nil, asm.encDur, soap.ClientFault("expected exactly one body entry, got %d", 1+extra)
	}
	if len(reqs) == 0 {
		if fault := joinHeaders(); fault != nil {
			return nil, asm.encDur, fault
		}
		return nil, asm.encDur, soap.ClientFault("%s has no requests", ElemParallelMethod)
	}

	// In-order incremental assembly: encode each contiguous completed
	// prefix of slots while later workers are still running, parking on
	// the reorder window's head when it is empty. On deadline expiry,
	// degrade every unfilled slot to a per-item fault and finish the
	// final drain over the now-complete window.
	for asm.next < len(reqs) {
		asm.drain(col, s.namespaceOf)
		if asm.failed != nil || asm.next >= len(reqs) {
			break
		}
		if col.waitSlot(ctx, asm.next) {
			col.mu.Lock()
			for i, r := range col.results {
				if r == nil {
					col.results[i] = s.abandonResult(ctx, reqs[i])
				}
			}
			col.mu.Unlock()
		}
	}
	// Join verification before letting any bytes leave; a header fault
	// outranks even an assembly failure, matching the buffered order.
	if fault := joinHeaders(); fault != nil {
		return nil, asm.encDur, fault
	}
	if asm.failed != nil {
		return nil, asm.encDur, soap.ServerFault("assembling packed response: %v", asm.failed)
	}
	s.itemFaults.Add(int64(asm.itemFaults))

	resp, err := asm.finish(v, rctx.ResponseHeaders())
	if err != nil {
		return encodeFailureResponse(), asm.encDur, nil
	}
	return resp, asm.encDur, nil
}
