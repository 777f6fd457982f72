package eval

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// TestSweepWorkersCappedAtGOMAXPROCS asks sweep for far more workers than
// GOMAXPROCS and parks every trial body at a gate. The test opens the gate
// once GOMAXPROCS bodies have entered, wave after wave, and yields after
// each opening: the woken body would otherwise wake the test straight
// back, a hand-off that starves every other runnable goroutine. So a
// worker beyond the cap gets its turn to enter while a wave is parked, and
// the peak number of bodies running at once must be exactly GOMAXPROCS.
func TestSweepWorkersCappedAtGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	workers := max(64, 2*procs)
	cfg := Config{FaultCounts: []int{0, 1}, Trials: workers, Workers: workers}
	jobs := 2 * workers
	var running, peak atomic.Int64
	var mu sync.Mutex
	gate := make(chan struct{})
	entered := make(chan struct{}, jobs)
	done := make(chan error, 1)
	go func() {
		done <- cfg.sweep(context.Background(), func(int, int, func(*stats.Series, float64)) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			mu.Lock()
			g := gate
			mu.Unlock()
			entered <- struct{}{}
			<-g
			running.Add(-1)
		})
	}()
	for left := jobs; left > 0; {
		wave := min(procs, left)
		for i := 0; i < wave; i++ {
			select {
			case <-entered:
			case err := <-done:
				t.Fatalf("sweep returned (%v) with %d jobs never run", err, left-i)
			}
		}
		left -= wave
		mu.Lock()
		close(gate)
		gate = make(chan struct{})
		mu.Unlock()
		runtime.Gosched()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != int64(procs) {
		t.Errorf("peak of %d trial bodies at once with Workers=%d, want GOMAXPROCS = %d", got, workers, procs)
	}
}
