// Command spiload drives sustained load against a live SPI server and
// reports throughput and latency percentiles — a general-purpose load
// generator in the spirit of the SOAP benchmark suite the paper cites as
// [10] (Head et al., SC-05), but aimable at any deployed service.
//
// Usage:
//
//	spiload -addr localhost:8080 -service Echo -op echo -d 10s -c 16 data=hello
//	spiload -addr localhost:8080 -service Echo -op echo -pack 32 -c 4 data=hi
//	spiload -addr localhost:8080 -service Echo -op echo -rate 500 data=x
//
// Modes:
//
//	closed loop (default): -c concurrent callers, each issuing
//	    back-to-back requests;
//	open loop: -rate R issues R requests/second regardless of
//	    completions (reveals queueing collapse);
//	packed: -pack N groups every N calls of a caller into one SOAP
//	    message via the pack interface.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spi "repro"
	"repro/internal/metrics"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "server address")
	service := flag.String("service", "Echo", "service name")
	op := flag.String("op", "echo", "operation name")
	duration := flag.Duration("d", 5*time.Second, "test duration")
	concurrency := flag.Int("c", 8, "concurrent callers (closed loop)")
	rate := flag.Float64("rate", 0, "target requests/second (open loop; 0 = closed loop)")
	pack := flag.Int("pack", 1, "pack this many calls per SOAP message")
	timeout := flag.Duration("timeout", 10*time.Second, "per-exchange timeout")
	keepAlive := flag.Bool("keepalive", false, "reuse connections")
	flag.Parse()

	params, err := parseParams(flag.Args())
	if err != nil {
		fatal(err)
	}

	client, err := spi.NewClient(spi.ClientConfig{
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", *addr) },
		Timeout:   *timeout,
		KeepAlive: *keepAlive,
	})
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	// Smoke-test the target before opening the floodgates.
	if _, err := client.Call(*service, *op, params...); err != nil {
		fatal(fmt.Errorf("preflight call failed: %w", err))
	}

	// An open-ended run: the histogram stays a fixed size however long it
	// goes, with quantiles at most 12.5% above the exact value.
	var rec metrics.Histogram
	var completed, failed atomic.Int64

	issue := func() {
		start := time.Now()
		var err error
		if *pack > 1 {
			b := client.NewBatch()
			for i := 0; i < *pack; i++ {
				b.Add(*service, *op, params...)
			}
			err = b.Send()
		} else {
			_, err = client.Call(*service, *op, params...)
		}
		if err != nil {
			failed.Add(1)
			return
		}
		rec.Observe(time.Since(start))
		completed.Add(int64(*pack))
	}

	fmt.Printf("spiload: %s.%s on %s — %v, ", *service, *op, *addr, *duration)
	start := time.Now()
	if *rate > 0 {
		fmt.Printf("open loop at %.0f req/s\n", *rate)
		runOpenLoop(*rate, *duration, issue)
	} else {
		fmt.Printf("closed loop with %d callers\n", *concurrency)
		runClosedLoop(*concurrency, *duration, issue)
	}
	elapsed := time.Since(start)

	s := rec.Summary()
	fmt.Printf("\ncompleted %d requests (%d exchanges failed) in %v\n",
		completed.Load(), failed.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f req/s\n", float64(completed.Load())/elapsed.Seconds())
	if s.Count > 0 {
		fmt.Printf("exchange latency: mean %.2fms  p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
			metrics.Millis(s.Mean), metrics.Millis(s.P50), metrics.Millis(s.P90),
			metrics.Millis(s.P99), metrics.Millis(s.Max))
	}
	st := client.Stats()
	fmt.Printf("messages sent: %d (%.1f calls per message)\n",
		st.Envelopes, float64(st.Calls)/float64(max64(st.Envelopes, 1)))
}

// runClosedLoop drives n workers issuing back-to-back requests until the
// duration elapses.
func runClosedLoop(n int, d time.Duration, issue func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					issue()
				}
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
}

// runOpenLoop issues requests at a fixed arrival rate, independent of
// completions; each arrival gets its own goroutine, so latency inflation
// under overload is visible instead of throttling the generator.
func runOpenLoop(rate float64, d time.Duration, issue func()) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	deadline := time.Now().Add(d)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			issue()
		}()
	}
	wg.Wait()
}

// parseParams converts name[:type]=value arguments (same syntax as
// spiclient).
func parseParams(args []string) ([]spi.Field, error) {
	var params []spi.Field
	for _, arg := range args {
		eq := strings.IndexByte(arg, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad parameter %q (want name=value)", arg)
		}
		name, raw := arg[:eq], arg[eq+1:]
		typ := "string"
		if colon := strings.IndexByte(name, ':'); colon >= 0 {
			name, typ = name[:colon], name[colon+1:]
		}
		var v spi.Value
		switch typ {
		case "string":
			v = raw
		case "int":
			n, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad int %q: %v", raw, err)
			}
			v = n
		case "float":
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float %q: %v", raw, err)
			}
			v = f
		case "bool":
			b, err := strconv.ParseBool(raw)
			if err != nil {
				return nil, fmt.Errorf("bad bool %q: %v", raw, err)
			}
			v = b
		default:
			return nil, fmt.Errorf("unknown type %q", typ)
		}
		params = append(params, spi.F(name, v))
	}
	return params, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spiload: %v\n", err)
	os.Exit(1)
}
