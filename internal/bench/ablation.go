package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/soapenc"
)

// AblationRow is one measured configuration of an ablation study.
type AblationRow struct {
	Name   string
	Millis float64
	Note   string
}

// AblationResult is one completed ablation table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// measure runs fn warmup+reps times and returns the mean milliseconds.
func measure(warmup, reps int, fn func() error) (float64, error) {
	samples := make([]time.Duration, 0, reps)
	for i := 0; i < warmup+reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if i >= warmup {
			samples = append(samples, time.Since(start))
		}
	}
	return metrics.Millis(metrics.Summarize(samples).Mean), nil
}

// packedRun sends one packed batch of m echo calls with the given payload.
func packedRun(c *core.Client, m int, payload string) error {
	b := c.NewBatch()
	for i := 0; i < m; i++ {
		b.Add("Echo", "echo", soapenc.F("data", payload))
	}
	return b.Send()
}

// RunStagedVsCoupled contrasts the staged independent thread pool (§3.3)
// with the traditional coupled architecture (Figure 1) on a packed message
// whose operations each carry real work: the staged server executes them
// concurrently, the coupled one serially.
func RunStagedVsCoupled(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 16
	const work = 2 * time.Millisecond
	result := &AblationResult{Title: fmt.Sprintf(
		"Ablation: staged pool vs coupled thread (packed M=%d, %v work/op)", m, work)}

	for _, coupled := range []bool{false, true} {
		env, err := NewEnv(EnvOptions{Coupled: coupled, WorkTime: work})
		if err != nil {
			return nil, err
		}
		ms, err := measure(1, reps, func() error { return packedRun(env.Client, m, "x") })
		env.Close()
		if err != nil {
			return nil, err
		}
		name, note := "staged (two independent pools)", "operations run concurrently on the app stage"
		if coupled {
			name, note = "coupled (single thread, Figure 1)", "operations run serially on the protocol thread"
		}
		result.Rows = append(result.Rows, AblationRow{Name: name, Millis: ms, Note: note})
	}
	return result, nil
}

// RunConnectionReuse isolates the TCP-setup component of the per-message
// overhead: the serial baseline with and without keep-alive, versus
// packing, at M=64 small messages.
func RunConnectionReuse(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 64
	payload := "aaaaaaaaaa"
	result := &AblationResult{Title: fmt.Sprintf(
		"Ablation: connection reuse (serial M=%d, 10 B payloads)", m)}

	type variant struct {
		name      string
		keepAlive bool
		packed    bool
		note      string
	}
	for _, v := range []variant{
		{"serial, new connection per message", false, false, "the paper's No Optimization baseline"},
		{"serial, keep-alive connection", true, false, "removes TCP setup, keeps per-message headers"},
		{"packed (Our Approach)", false, true, "one connection, one set of headers"},
	} {
		env, err := NewEnv(EnvOptions{KeepAlive: v.keepAlive})
		if err != nil {
			return nil, err
		}
		ms, err := measure(1, reps, func() error {
			if v.packed {
				return packedRun(env.Client, m, payload)
			}
			for i := 0; i < m; i++ {
				if _, err := env.Client.Call("Echo", "echo", soapenc.F("data", payload)); err != nil {
					return err
				}
			}
			return nil
		})
		env.Close()
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, AblationRow{Name: v.name, Millis: ms, Note: v.note})
	}
	return result, nil
}

// RunPoolWidth sweeps the application-stage width for a packed message of
// working operations, showing where server-side concurrency saturates.
func RunPoolWidth(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 32
	const work = 2 * time.Millisecond
	result := &AblationResult{Title: fmt.Sprintf(
		"Ablation: application-stage width (packed M=%d, %v work/op)", m, work)}

	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		env, err := NewEnv(EnvOptions{AppWorkers: workers, WorkTime: work})
		if err != nil {
			return nil, err
		}
		ms, err := measure(1, reps, func() error { return packedRun(env.Client, m, "x") })
		env.Close()
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, AblationRow{
			Name:   fmt.Sprintf("%d app workers", workers),
			Millis: ms,
		})
	}
	return result, nil
}

// RunAdaptiveStage contrasts the fixed application pool with the
// SEDA-controlled adaptive pool (the resource-controller mechanism of the
// paper's reference [5]) under a bursty packed workload: the adaptive pool
// should reach comparable latency while provisioning threads on demand.
func RunAdaptiveStage(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 32
	const work = 2 * time.Millisecond
	result := &AblationResult{Title: fmt.Sprintf(
		"Ablation: SEDA adaptive pool vs fixed pool (packed M=%d bursts, %v work/op)", m, work)}

	for _, adaptive := range []bool{false, true} {
		env, err := NewEnv(EnvOptions{AppWorkers: 32, AdaptiveAppStage: adaptive, WorkTime: work})
		if err != nil {
			return nil, err
		}
		ms, err := measure(1, reps, func() error {
			// A burst, a pause, a burst — the shape SEDA's controller is
			// built for.
			if err := packedRun(env.Client, m, "x"); err != nil {
				return err
			}
			time.Sleep(2 * time.Millisecond)
			return packedRun(env.Client, m, "x")
		})
		workers := env.Server.Stats().AppStage.Workers
		env.Close()
		if err != nil {
			return nil, err
		}
		name, note := "fixed pool (32 workers always)", ""
		if adaptive {
			name = "adaptive pool (2..32 workers)"
			note = fmt.Sprintf("%d workers live at end of run", workers)
		}
		result.Rows = append(result.Rows, AblationRow{Name: name, Millis: ms, Note: note})
	}
	return result, nil
}

// RunAutoBatch compares explicit packing against the automatic batcher
// (the paper's future-work interface) and against plain concurrent calls,
// for M concurrent client goroutines.
func RunAutoBatch(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 32
	payload := "aaaaaaaaaa"
	result := &AblationResult{Title: fmt.Sprintf(
		"Ablation: automatic batching (%d concurrent client calls, 10 B payloads)", m)}

	// Plain concurrent calls (one message each).
	env, err := NewEnv(EnvOptions{})
	if err != nil {
		return nil, err
	}
	ms, err := measure(1, reps, func() error {
		calls := make([]*core.Call, m)
		for i := range calls {
			calls[i] = env.Client.Go("Echo", "echo", soapenc.F("data", payload))
		}
		for _, c := range calls {
			if _, err := c.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	env.Close()
	if err != nil {
		return nil, err
	}
	result.Rows = append(result.Rows, AblationRow{
		Name: "Multiple Threads (no batching)", Millis: ms,
		Note: "M messages, M connections"})

	// Explicit batch.
	env, err = NewEnv(EnvOptions{})
	if err != nil {
		return nil, err
	}
	ms, err = measure(1, reps, func() error { return packedRun(env.Client, m, payload) })
	env.Close()
	if err != nil {
		return nil, err
	}
	result.Rows = append(result.Rows, AblationRow{
		Name: "explicit Batch (pack interface)", Millis: ms,
		Note: "caller groups the calls"})

	// Auto batcher: concurrent unmodified callers coalesced by the window.
	env, err = NewEnv(EnvOptions{})
	if err != nil {
		return nil, err
	}
	ab := core.NewAutoBatcher(env.Client, 500*time.Microsecond, m)
	ms, err = measure(1, reps, func() error {
		var wg sync.WaitGroup
		errs := make([]error, m)
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = ab.Call("Echo", "echo", soapenc.F("data", payload))
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	})
	envelopes := env.Client.Stats().Envelopes
	ab.Close()
	env.Close()
	if err != nil {
		return nil, err
	}
	result.Rows = append(result.Rows, AblationRow{
		Name: "AutoBatcher (transparent packing)", Millis: ms,
		Note: fmt.Sprintf("window 500µs; %d envelopes total across runs", envelopes)})
	return result, nil
}
