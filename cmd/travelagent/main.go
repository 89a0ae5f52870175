// Command travelagent runs the §4.3 travel-agent scenario end-to-end: the
// eleven-invocation booking sequence of Figure 8, with and without the
// pack optimization of steps 1 and 3, and reports the comparison the paper
// reports (408 ms vs 301 ms, ~26% improvement, on their testbed).
//
// By default it runs self-contained over the simulated 100 Mbit link; with
// -addr it runs against a live spiserver instead.
//
// Usage:
//
//	travelagent                      # simulated link, one booking each mode
//	travelagent -reps 10             # the paper's repetition count
//	travelagent -work 2ms            # simulated vendor work per operation
//	travelagent -addr localhost:8080 # against a running spiserver
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	spi "repro"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/services"
)

func main() {
	addr := flag.String("addr", "", "run against a live spiserver at this address (default: simulated link)")
	reps := flag.Int("reps", 10, "repetitions per mode")
	work := flag.Duration("work", 2*time.Millisecond, "simulated vendor work per operation (simulated link only)")
	flag.Parse()

	if *addr != "" {
		runAgainst(*addr, *reps)
		return
	}

	r, err := bench.RunTravel(bench.TravelConfig{Repetitions: *reps, WorkTime: *work})
	if err != nil {
		fatal(err)
	}
	// Show one concrete booking so the output is more than numbers.
	env, err := bench.NewEnv(bench.EnvOptions{Travel: true, WorkTime: *work})
	if err != nil {
		fatal(err)
	}
	it, err := services.RunTravelAgent(env.Client, services.DefaultItinerary(), true)
	env.Close()
	if err != nil {
		fatal(err)
	}
	printItinerary(it)
	bench.PrintTravel(os.Stdout, r)
}

// runAgainst replays the scenario against a live server.
func runAgainst(addr string, reps int) {
	client, err := spi.NewClient(spi.ClientConfig{
		Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Timeout: 30 * time.Second,
	})
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	var it *services.Itinerary
	for _, optimized := range []bool{false, true} {
		samples := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			start := time.Now()
			res, err := services.RunTravelAgent(client, services.DefaultItinerary(), optimized)
			if err != nil {
				fatal(err)
			}
			samples = append(samples, time.Since(start))
			it = res
		}
		mode := "without optimization"
		if optimized {
			mode = "with optimization   "
		}
		fmt.Printf("%s  %s  (%d messages/run)\n", mode, metrics.Summarize(samples), it.Messages)
	}
	printItinerary(it)
}

func printItinerary(it *services.Itinerary) {
	fmt.Printf("booked itinerary (%d service invocations, %d SOAP messages):\n", it.Invocations, it.Messages)
	fmt.Printf("  flight %s at %.2f (reservation %d)\n", it.Flight, it.FlightPrice, it.FlightReservation)
	fmt.Printf("  room   %s at %.2f (reservation %d)\n", it.Room, it.RoomPrice, it.RoomReservation)
	fmt.Printf("  paid   %.2f, authorization %s\n\n", it.Total, it.AuthorizationID)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "travelagent: %v\n", err)
	os.Exit(1)
}
