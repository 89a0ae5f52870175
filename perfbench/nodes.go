package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/trace"
	"repro/internal/wsse"
	"repro/internal/xmldom"
)

// Stage names of the spans the benchmark records around its own calls
// into the program. They share the program's tracer and trace ids.
const (
	stageBatchSend  = "bench.batch_send"
	stageCall       = "bench.call"
	stageHandler    = "bench.handler"
	stageWSSEVerify = "bench.wsse_verify"
	stageWSSESign   = "bench.wsse_sign"
	stageStats      = "bench.stats"
)

// tier counts the connections of one edge of the topology (one dialer or
// one listener) and the reads made on them. The cap is the load-budget
// guard: exceeding it fails the round.
type tier struct {
	name      string
	cap       int
	conns     atomic.Int64
	reads     atomic.Int64
	readBytes atomic.Int64

	// capture, while armed, keeps the bytes read on each connection (up
	// to captureMax per connection) so request bodies can be replayed
	// through the codec.
	captureOn  atomic.Bool
	captureMax int
	captureMu  sync.Mutex
	captures   []*bytes.Buffer
}

// arm starts or stops capturing reads on the tier's connections.
func (t *tier) arm(on bool, max int) {
	t.captureMu.Lock()
	t.captureMax = max
	t.captureMu.Unlock()
	t.captureOn.Store(on)
}

// captured returns everything captured so far, one stream per connection.
func (t *tier) captured() [][]byte {
	t.captureMu.Lock()
	defer t.captureMu.Unlock()
	out := make([][]byte, 0, len(t.captures))
	for _, b := range t.captures {
		out = append(out, b.Bytes())
	}
	return out
}

func (t *tier) check() error {
	if n := t.conns.Load(); n > int64(t.cap) {
		return fmt.Errorf("connection cap exceeded on tier %s: %d connections > cap %d", t.name, n, t.cap)
	}
	return nil
}

// countedConn embeds *net.TCPConn so that net.Buffers keeps its vectored
// write path (it only vectorizes on the net package's own connection
// types); only Read is intercepted.
type countedConn struct {
	*net.TCPConn
	t   *tier
	cap *bytes.Buffer // guarded by t.captureMu; nil until a capture
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	c.t.reads.Add(1)
	c.t.readBytes.Add(int64(n))
	if n > 0 && c.t.captureOn.Load() {
		c.t.captureMu.Lock()
		if c.cap == nil {
			c.cap = &bytes.Buffer{}
			c.t.captures = append(c.t.captures, c.cap)
		}
		if c.cap.Len()+n <= c.t.captureMax {
			c.cap.Write(p[:n])
		}
		c.t.captureMu.Unlock()
	}
	return n, err
}

func (t *tier) wrap(c net.Conn) net.Conn {
	t.conns.Add(1)
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	return &countedConn{TCPConn: tc, t: t}
}

// dialer returns a Dial func for addr whose connections count on t.
func (t *tier) dialer(addr string) httpx.Dialer {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return t.wrap(c), nil
	}
}

// countedListener counts accepted connections on its tier.
type countedListener struct {
	net.Listener
	t *tier
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c), nil
}

// durations is an append-only, position-ordered sample log.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *durations) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *durations) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

// hooks are the benchmark-owned wrappers around the program's extension
// points. With a nil tracer they only pass calls through (and corrupt
// replies when a test asks them to).
type hooks struct {
	tr           *trace.Tracer
	verify, sign durations

	// corruptEvery, when > 0, makes every n-th handler invocation return
	// a wrong value, so tests can prove the output check fires.
	corruptEvery int64
	handled      atomic.Int64
}

func (h *hooks) wrapHandler(name string, next registry.Handler) registry.Handler {
	return func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		if h.corruptEvery > 0 && h.handled.Add(1)%h.corruptEvery == 0 {
			res, err := next(ctx, params)
			if err != nil || len(res) == 0 {
				return res, err
			}
			out := append([]soapenc.Field(nil), res...)
			out[0] = soapenc.F(out[0].Name, "corrupted")
			return out, nil
		}
		if h.tr == nil {
			return next(ctx, params)
		}
		start := time.Now()
		res, err := next(ctx, params)
		h.tr.Record(trace.Span{Trace: trace.FromContext(ctx.Context()), Stage: stageHandler,
			ID: -1, Op: name, Start: start, Service: time.Since(start)})
		return res, err
	}
}

// timedVerifier wraps the real wsse.Verifier.
type timedVerifier struct {
	v *wsse.Verifier
	h *hooks
}

func (t *timedVerifier) HeaderName() (string, string) { return t.v.HeaderName() }

func (t *timedVerifier) ProcessHeader(block *xmldom.Element, body []byte) error {
	if t.h.tr == nil {
		return t.v.ProcessHeader(block, body)
	}
	start := time.Now()
	err := t.v.ProcessHeader(block, body)
	d := time.Since(start)
	t.h.verify.add(d)
	t.h.tr.Record(trace.Span{Stage: stageWSSEVerify, ID: -1, Start: start, Service: d})
	return err
}

// timedSigner wraps the real wsse.Signer.
type timedSigner struct {
	s *wsse.Signer
	h *hooks
}

func (t *timedSigner) MakeHeaders(body []byte) ([]*xmldom.Element, error) {
	if t.h.tr == nil {
		return t.s.MakeHeaders(body)
	}
	start := time.Now()
	blocks, err := t.s.MakeHeaders(body)
	d := time.Since(start)
	t.h.sign.add(d)
	t.h.tr.Record(trace.Span{Stage: stageWSSESign, ID: -1, Start: start, Service: d})
	return blocks, err
}

// node is one listening process of the topology: an SPI server or the
// gateway, each with its own accept-side tier and a scrape client.
type node struct {
	name   string
	addr   string
	server *core.Server
	gw     *gateway.Gateway
	accept *tier
	scrape *httpx.Client
	dialT  *tier // the scrape client's dial tier
	served chan error
}

func (n *node) close() {
	n.scrape.Close()
	if n.gw != nil {
		n.gw.Close()
	} else {
		n.server.Close()
	}
	<-n.served
}

// topology is one round's set of running nodes plus the caller's client.
type topology struct {
	nodes    []*node // front node first
	servers  []*core.Server
	gw       *gateway.Gateway
	client   *core.Client
	tiers    []*tier // every tier, for the guard
	dataDial []*tier // caller and gateway-backend dial tiers
	callerT  *tier
	hooks    *hooks
}

const benchSecret = "perfbench-shared-secret"

func newContainer(h *hooks) (*registry.Container, error) {
	c := registry.NewContainer()
	if err := services.DeployEcho(c, services.Options{}); err != nil {
		return nil, err
	}
	if err := services.DeployWeather(c, services.Options{}); err != nil {
		return nil, err
	}
	for _, svc := range c.Services() {
		for _, op := range svc.Operations() {
			op.Handler = h.wrapHandler(op.Service+"."+op.Name, op.Handler)
		}
	}
	return c, nil
}

func listen(name string, cap int) (*countedListener, *tier, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	t := &tier{name: name + ".accept", cap: cap}
	return &countedListener{Listener: l, t: t}, t, nil
}

// startTopology builds and starts every node of the workload on loopback
// TCP and the caller's keep-alive client.
func startTopology(w workload, connCap int, h *hooks) (*topology, error) {
	top := &topology{hooks: h}
	// Each listener takes the data tier's connections plus the one
	// control-plane scrape connection.
	acceptCap := connCap + 1
	nServers := 1
	if w.gateway {
		nServers = 2
	}
	var backendAddrs []string
	for i := 0; i < nServers; i++ {
		c, err := newContainer(h)
		if err != nil {
			top.close()
			return nil, err
		}
		cfg := core.ServerConfig{Container: c, AdminService: true, Tracer: h.tr}
		if w.secure {
			cfg.HeaderProcessors = []core.HeaderProcessor{&timedVerifier{
				v: &wsse.Verifier{Secrets: map[string][]byte{"perfbench": []byte(benchSecret)}}, h: h}}
			cfg.DifferentialDeserialization = true
		}
		srv, err := core.NewServer(cfg)
		if err != nil {
			top.close()
			return nil, err
		}
		name := fmt.Sprintf("server%d", i)
		l, at, err := listen(name, acceptCap)
		if err != nil {
			srv.Close()
			top.close()
			return nil, err
		}
		n := &node{name: name, addr: l.Addr().String(), server: srv, accept: at, served: make(chan error, 1)}
		go func() { n.served <- srv.Serve(l) }()
		top.addNode(n)
		top.servers = append(top.servers, srv)
		backendAddrs = append(backendAddrs, l.Addr().String())
	}
	front := top.nodes[0]
	if w.gateway {
		var backends []gateway.BackendConfig
		for i, addr := range backendAddrs {
			bt := &tier{name: fmt.Sprintf("gateway->server%d.dial", i), cap: connCap}
			top.tiers = append(top.tiers, bt)
			top.dataDial = append(top.dataDial, bt)
			backends = append(backends, gateway.BackendConfig{Name: fmt.Sprintf("server%d", i), Dial: bt.dialer(addr)})
		}
		gw, err := gateway.New(gateway.Config{Backends: backends, Policy: gateway.RoundRobin,
			AdminService: true, Tracer: h.tr})
		if err != nil {
			top.close()
			return nil, err
		}
		l, at, err := listen("gateway", acceptCap)
		if err != nil {
			gw.Close()
			top.close()
			return nil, err
		}
		n := &node{name: "gateway", addr: l.Addr().String(), gw: gw, accept: at, served: make(chan error, 1)}
		go func() { n.served <- gw.Serve(l) }()
		top.addNode(n)
		top.gw = gw
		// The gateway is the front node.
		top.nodes = append([]*node{n}, top.nodes[:len(top.nodes)-1]...)
		front = n
	}
	top.callerT = &tier{name: "caller->" + front.name + ".dial", cap: connCap}
	top.tiers = append(top.tiers, top.callerT)
	top.dataDial = append(top.dataDial, top.callerT)
	ccfg := core.ClientConfig{Dial: top.callerT.dialer(front.addr), KeepAlive: true,
		Timeout: 60 * time.Second, Tracer: h.tr}
	if w.secure {
		ccfg.HeaderProviders = []core.HeaderProvider{&timedSigner{
			s: &wsse.Signer{Username: "perfbench", Secret: []byte(benchSecret)}, h: h}}
	}
	client, err := core.NewClient(ccfg)
	if err != nil {
		top.close()
		return nil, err
	}
	top.client = client
	return top, nil
}

func (top *topology) addNode(n *node) {
	n.dialT = &tier{name: "scraper->" + n.name + ".dial", cap: 1}
	n.scrape = &httpx.Client{Dial: n.dialT.dialer(n.addr), KeepAlive: true, MaxIdle: 1, Timeout: 30 * time.Second}
	top.nodes = append(top.nodes, n)
	top.tiers = append(top.tiers, n.accept, n.dialT)
}

func (top *topology) close() {
	if top.client != nil {
		top.client.Close()
	}
	for _, n := range top.nodes {
		n.close()
	}
}

// checkTiers enforces the load-budget guard.
func (top *topology) checkTiers() error {
	var errs []error
	for _, t := range top.tiers {
		if err := t.check(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// dataDials counts connections opened on data-path dial tiers (callers and
// gateway backends), excluding control-plane scrapes.
func (top *topology) dataDials() int64 {
	var n int64
	for _, t := range top.dataDial {
		n += t.conns.Load()
	}
	return n
}

// dataReads sums Read calls and bytes on both ends of every data-path
// connection. Accept tiers also see scrape connections, so callers take
// deltas over a phase with no scrapes in it.
func (top *topology) dataReads() (reads, readBytes int64) {
	for _, t := range top.dataDial {
		reads += t.reads.Load()
		readBytes += t.readBytes.Load()
	}
	for _, n := range top.nodes {
		reads += n.accept.reads.Load()
		readBytes += n.accept.readBytes.Load()
	}
	return reads, readBytes
}

var getStatsDoc = func() []byte {
	env, err := admin.NewGetStatsRequest(soap.V11)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// scrape runs one admin GetStats SOAP round trip against the node and
// returns the decoded snapshot and the response size.
func (n *node) getStats(ctx context.Context) (admin.Stats, int, error) {
	resp, err := n.scrape.PostCtx(ctx, "/services/"+admin.ServiceName, soap.V11.ContentType(),
		getStatsDoc, "SOAPAction", `""`)
	if err != nil {
		return admin.Stats{}, 0, fmt.Errorf("GetStats %s: %w", n.name, err)
	}
	body := append([]byte(nil), resp.Body...)
	resp.Release()
	st, err := admin.ParseStatsResponse(body)
	if err != nil {
		return admin.Stats{}, 0, fmt.Errorf("GetStats %s: %w", n.name, err)
	}
	return st, len(body), nil
}
