package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// shortConfig scales a workload down to a run of a second or two.
func shortConfig(t *testing.T, name string, traced bool) runConfig {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	nproc := runtime.NumCPU()
	return runConfig{w: w, seed: 7, seconds: 1, trace: traced, callers: callers, connCap: nproc,
		traceDir: t.TempDir(), envelopes: 40 * 16 / w.batch, warmup: 8}
}

func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(shortConfig(t, sw.Name, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sw.Name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", sw.Name, traced, res.correct, res.failed, res.attempted)
			}
			got := make(map[string]metric)
			for _, m := range res.metrics {
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", sw.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", sw.Name, traced, m.Name)
				case g.unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", sw.Name, traced, m.Name, g.unit, m.Unit)
				case !traced && g.value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sw.Name, m.Name, g.value)
				}
			}
		}
	}
}

func TestCorruptedReplyCountsAsFailed(t *testing.T) {
	for _, w := range workloads {
		cfg := shortConfig(t, w.name, false)
		cfg.corruptEvery = 5
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.correct || res.failed == 0 {
			t.Errorf("%s: corrupted replies went unnoticed: correct=%v failed=%d of %d", w.name, res.correct, res.failed, res.attempted)
		}
	}
}

func TestConnectionGuardTrips(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two callers, so two CPUs")
	}
	for _, w := range workloads {
		cfg := shortConfig(t, w.name, false)
		cfg.callers, cfg.connCap = 2, 1 // two serial callers need two connections
		_, err := run(cfg, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "connection cap exceeded") {
			t.Errorf("%s: want a connection-cap failure, got %v", w.name, err)
		}
	}
}
