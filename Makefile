# SPI — SOAP Passing Interface. Stdlib-only; the go toolchain is the only
# build dependency.

GO ?= go

.PHONY: check build vet test race race-pools race-gateway race-controlplane race-transport race-streamfeatures bench figures fuzz-smoke bench-check bench-gate vet-escapes vet-faults docs-check

## check: the full gate — build, vet, race-enabled shuffled tests,
## pool-lifecycle tests under -race, the gateway differential/chaos suite
## under -race, the cluster control-plane tier under -race, the transport
## tier (pipelining + C10k soak) under -race, the unified-fast-path parity
## suite under -race, the encode-path escape audit, the docs link audit,
## and the perf-regression gate vs the baseline chain.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...
	$(MAKE) race-pools
	$(MAKE) race-gateway
	$(MAKE) race-controlplane
	$(MAKE) race-transport
	$(MAKE) race-streamfeatures
	$(MAKE) vet-escapes
	$(MAKE) vet-faults
	$(MAKE) docs-check
	$(MAKE) bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## test: the tier-1 suite (what CI holds the line on).
test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

## race-pools: hammer the recycled-memory surfaces (arena, buffer pool,
## interning, streaming decode) under the race detector with extra runs.
race-pools:
	$(GO) test -race -count=3 -run='Arena|Pool|Intern|Stream' \
		./internal/xmldom ./internal/xmltext ./internal/soap \
		./internal/core ./internal/httpx

## race-gateway: extra runs of the scatter–gather differential and chaos
## suites under the race detector — the gateway's concurrency (shard
## fan-out, reorder-window gather, circuit state, pool slots) is the code
## under test here.
race-gateway:
	$(GO) test -race -count=2 -run='Differential|Chaos|Failover|Ejection|Probe' \
		./internal/gateway

## race-controlplane: the cluster control-plane tier under the race
## detector — admin service routing state, membership polling, weighted
## convergence, drain-under-load loss/duplication, membership churn soak.
race-controlplane:
	$(GO) test -race -count=2 \
		-run='TestGatewayAdmin|TestMembership|TestWeightedConvergence|TestDrainUnderLoad|TestDrainReleases|TestDifferentialWeighted|TestAdminBypassesAppStage' \
		./internal/gateway ./internal/core
	$(GO) test -race -run='TestSoakMembershipChurn' .

## race-transport: the transport tier under the race detector — server and
## client pipelining state machines, deadline-wheel timers, the zero-copy
## passthrough, and the C10k soak (ten thousand pipelined keep-alive
## connections, every response checked for loss/duplication/cross-wiring).
race-transport:
	$(GO) test -race -shuffle=on -count=2 -run='TestServerPipeline|TestClientPipeline|TestPipelined|TestWheel|TestPassthrough|TestShutdownStopsDrainAlarm' \
		./internal/httpx ./internal/core ./internal/gateway
	$(GO) test -race -run='TestSoakC10kPipelined' .

## race-streamfeatures: the unified fast path under the race detector —
## streamed-vs-buffered byte parity across WSSE × differential cache ×
## entry interceptors, the concurrent WSSE verification goroutine, the
## sharded LRU, the tamper-rejection property, and the WSSE replay set
## under concurrent presentation of one token. Extra runs because the
## verify goroutine races entry dispatch by design.
race-streamfeatures:
	$(GO) test -race -count=2 \
		-run='TestUnifiedFastPathParity|TestStreamedWSSERejectsTamper|TestStreamResponseParity|TestDifferentialDeserialization|TestDiffCacheLRU|TestStreamPathActive' \
		./internal/core
	$(GO) test -race -count=2 -run='TestConcurrentReplayExecutesOnce' ./internal/wsse

## bench: the paper's experiments as testing.B benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

## figures: regenerate the paper's evaluation tables (EXPERIMENTS.md source).
figures:
	$(GO) run ./cmd/spibench
	$(GO) run ./cmd/spibench -fig faults

## fuzz-smoke: run each fuzz target briefly against the codec layer.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzTokenizer$$' -fuzztime=10s ./internal/xmltext
	$(GO) test -run='^$$' -fuzz='^FuzzParseEnvelope$$' -fuzztime=10s ./internal/soap
	$(GO) test -run='^$$' -fuzz='^FuzzReadResponse$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzReadRequestStream$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzParseStats$$' -fuzztime=10s ./internal/admin
	$(GO) test -run='^$$' -fuzz='^FuzzDiffSubtree$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzFaultRoundTrip$$' -fuzztime=10s ./internal/fault

## bench-check: snapshot the key benchmarks to BENCH_pr12.json (perf guard).
bench-check:
	$(GO) run ./cmd/benchcheck

## bench-gate: fail if the key benchmarks regressed vs the baseline chain
## (first file that records a benchmark wins, so each benchmark keeps the
## baseline of the PR that introduced it). Short benchtime keeps the gate
## fast; the wide tolerance absorbs machine noise while still catching
## step-function regressions.
bench-gate:
	$(GO) run ./cmd/benchcheck -benchtime 200ms -out /tmp/benchgate.json \
		-baseline BENCH_pr8.json,BENCH_pr7.json,BENCH_pr6.json,BENCH_pr5.json,BENCH_pr4.json,BENCH_pr3.json,BENCH_pr2.json,BENCH_pr12.json -tolerance 35

## docs-check: fail on broken relative links in README.md and docs/*.md.
docs-check:
	$(GO) run ./cmd/docscheck

## vet-escapes: audit the streaming encode hot path for unexpected heap
## escapes. The stack scratch buffers in the soap/soapenc writers must stay
## on the stack; a `moved to heap` on one of them would silently reintroduce
## the per-entry allocations this path exists to remove.
vet-escapes:
	@out=$$($(GO) build -gcflags='-m' ./internal/soap ./internal/soapenc 2>&1 | \
		grep -E 'moved to heap: (tmp|local|scratch)' || true); \
	if [ -n "$$out" ]; then \
		echo "vet-escapes: encode-path scratch buffers escaped to the heap:"; \
		echo "$$out"; exit 1; \
	fi; \
	echo "vet-escapes: encode-path scratch buffers stay on the stack"

## vet-faults: the fault-code literal audit. The dotted Server.* refinement
## codes may be spelled exactly once, in internal/fault's envelope edge —
## every other producer must go through the taxonomy constructors, so code
## and retry semantics can never drift apart. Tests are exempt (they pin
## wire bytes on purpose).
vet-faults:
	@out=$$(grep -rnE '"(Server\.(Timeout|Busy|Cancelled))' \
		--include='*.go' --exclude='*_test.go' \
		cmd internal *.go 2>/dev/null | grep -v '^internal/fault/' || true); \
	if [ -n "$$out" ]; then \
		echo "vet-faults: Server.* fault-code literals outside internal/fault:"; \
		echo "$$out"; \
		echo "use the internal/fault constructors (Timeoutf/Busyf/Cancelledf/...) instead"; \
		exit 1; \
	fi; \
	echo "vet-faults: fault-code literals confined to internal/fault"
