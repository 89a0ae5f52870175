package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/services"
)

// TravelConfig parameterizes the §4.3 travel-agent experiment.
type TravelConfig struct {
	// Repetitions is how many times each mode runs (the paper: "The test
	// in each case is repeated 10 times").
	Repetitions int
	// Warmup runs before measurement (default 1).
	Warmup int
	// Env configures the environment. Travel services are always
	// deployed.
	Env EnvOptions
	// WorkTime simulates the vendors' backend work per operation.
	WorkTime time.Duration
}

// TravelResult reports the §4.3 comparison.
type TravelResult struct {
	Config TravelConfig

	Unoptimized metrics.Summary
	Optimized   metrics.Summary

	// Messages sent per run in each mode (11 vs 7).
	UnoptimizedMessages int
	OptimizedMessages   int

	// ImprovementPct is (unopt-opt)/unopt * 100 — the paper reports 26%.
	ImprovementPct float64
}

// RunTravel measures the travel-agent sequence with and without packing
// steps 1 and 3.
func RunTravel(cfg TravelConfig) (*TravelResult, error) {
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 10
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 1
	}
	cfg.Env.Travel = true
	if cfg.WorkTime > 0 {
		cfg.Env.WorkTime = cfg.WorkTime
	}

	result := &TravelResult{Config: cfg}
	for _, optimized := range []bool{false, true} {
		// A fresh environment per mode keeps reservation books disjoint.
		env, err := NewEnv(cfg.Env)
		if err != nil {
			return nil, err
		}
		samples := make([]time.Duration, 0, cfg.Repetitions)
		for rep := 0; rep < cfg.Warmup+cfg.Repetitions; rep++ {
			start := time.Now()
			it, err := services.RunTravelAgent(env.Client, services.DefaultItinerary(), optimized)
			elapsed := time.Since(start)
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("travel agent (optimized=%v): %w", optimized, err)
			}
			if rep >= cfg.Warmup {
				samples = append(samples, elapsed)
			}
			if optimized {
				result.OptimizedMessages = it.Messages
			} else {
				result.UnoptimizedMessages = it.Messages
			}
		}
		if optimized {
			result.Optimized = metrics.Summarize(samples)
		} else {
			result.Unoptimized = metrics.Summarize(samples)
		}
		env.Close()
	}
	u, o := metrics.Millis(result.Unoptimized.Mean), metrics.Millis(result.Optimized.Mean)
	if u > 0 {
		result.ImprovementPct = (u - o) / u * 100
	}
	return result, nil
}
