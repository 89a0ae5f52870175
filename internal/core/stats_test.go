package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

var statsTestOps = []opKey{{"Echo", "echo"}, {"Echo", "fail"}, {"WeatherService", "GetWeather"}}

// recordSamples feeds n op samples, spread over statsTestOps, and n samples
// per protocol phase through the server's recording paths.
func recordSamples(s *Server, n int) {
	for i := 0; i < n; i++ {
		d := time.Duration(i%5000+1) * time.Microsecond
		k := statsTestOps[i%len(statsTestOps)]
		s.recordOp(k.service, k.op, d)
		s.phaseParse.Observe(d)
		s.phaseDispatch.Observe(d)
		s.phaseEncode.Observe(d)
	}
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Stats and AdminStats cost the same after 200k samples as after 1k: the
// same allocations per call, and the recorded history itself holds no
// memory that grows with the sample count.
func TestStatsCostBounded(t *testing.T) {
	s, err := NewServer(ServerConfig{Container: newEchoContainer(t), AdminService: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const small, large = 1_000, 200_000
	recordSamples(s, small)
	statsAllocs := testing.AllocsPerRun(20, func() { _ = s.Stats() })
	adminAllocs := testing.AllocsPerRun(20, func() { _ = s.AdminStats() })
	heapSmall := liveHeap()

	recordSamples(s, large-small)
	heapLarge := liveHeap()
	if got := testing.AllocsPerRun(20, func() { _ = s.Stats() }); got != statsAllocs {
		t.Errorf("Stats() allocs/op = %.0f after %d samples, %.0f after %d", got, large, statsAllocs, small)
	}
	if got := testing.AllocsPerRun(20, func() { _ = s.AdminStats() }); got != adminAllocs {
		t.Errorf("AdminStats() allocs/op = %.0f after %d samples, %.0f after %d", got, large, adminAllocs, small)
	}
	if growth := heapLarge - heapSmall; growth > 64<<10 {
		t.Errorf("live heap grew %d B between %d and %d samples, want < 64 KiB", growth, small, large)
	}

	st := s.Stats()
	for _, k := range statsTestOps {
		if got, want := st.Operations[k.service+"."+k.op].Count, large/len(statsTestOps); got < want {
			t.Errorf("%s.%s count = %d, want >= %d", k.service, k.op, got, want)
		}
	}
	for name, ph := range map[string]int{"parse": st.ParsePhase.Count, "dispatch": st.DispatchPhase.Count, "encode": st.EncodePhase.Count} {
		if ph != large {
			t.Errorf("%s phase count = %d, want %d", name, ph, large)
		}
	}
}

// App workers record into per-op histograms, including operations seen
// for the first time, while scrapes take Stats and AdminStats: nothing is
// lost and every digest the scrapes see is ordered. Run under -race.
func TestConcurrentRecordOpAndStats(t *testing.T) {
	s, err := NewServer(ServerConfig{Container: newEchoContainer(t), AdminService: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers, perWorker, opsPerWorker = 8, 2000, 4
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for name, op := range s.Stats().Operations {
					if !(op.Min <= op.P50 && op.P50 <= op.P90 && op.P90 <= op.P99 && op.P99 <= op.Max) {
						t.Errorf("%s: unordered digest %+v", name, op)
						return
					}
				}
				_ = s.AdminStats()
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Each worker shares "shared" with the others and
				// introduces its own operations as it goes.
				op := "shared"
				if i%2 == 1 {
					op = fmt.Sprintf("w%d-op%d", w, i%(2*opsPerWorker)/2)
				}
				s.recordOp("Svc", op, time.Duration(i+1)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	st := s.Stats()
	if got, want := len(st.Operations), 1+workers*opsPerWorker; got != want {
		t.Errorf("%d operations recorded, want %d", got, want)
	}
	total := 0
	for _, op := range st.Operations {
		total += op.Count
	}
	if total != workers*perWorker {
		t.Errorf("%d op samples recorded, want %d", total, workers*perWorker)
	}
	if got := st.Operations["Svc.shared"].Count; got != workers*perWorker/2 {
		t.Errorf("Svc.shared count = %d, want %d", got, workers*perWorker/2)
	}
}
