package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/routing"
)

func TestRouteCtxTypedErrors(t *testing.T) {
	f := testFaults(t, 8, 0, 0)
	f.Add(mesh.C(3, 3))
	snap := New(f, Options{}).Snapshot()
	ctx := context.Background()

	if _, err := snap.RouteCtx(ctx, routing.RB2, mesh.C(0, 0), mesh.C(9, 9), routing.Options{}); !errors.Is(err, ErrOutsideMesh) {
		t.Errorf("outside endpoint: %v, want ErrOutsideMesh", err)
	}
	if _, err := snap.RouteCtx(ctx, routing.RB2, mesh.C(3, 3), mesh.C(7, 7), routing.Options{}); !errors.Is(err, ErrFaultyEndpoint) {
		t.Errorf("faulty endpoint: %v, want ErrFaultyEndpoint", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := snap.RouteCtx(canceled, routing.RB2, mesh.C(0, 0), mesh.C(7, 7), routing.Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if _, err := snap.RouteCtx(ctx, routing.RB2, mesh.C(0, 0), mesh.C(7, 7), routing.Options{}); err != nil {
		t.Errorf("healthy route: %v", err)
	}
}

// TestRouteCtxDeadlineAbortsWalk hooks an expired deadline to the walk's
// hop budget: the walk must abort with a cancellation error, not run to
// its 8*nodes budget.
func TestRouteCtxDeadlineAbortsWalk(t *testing.T) {
	f := testFaults(t, 24, 60, 1)
	snap := New(f, Options{}).Snapshot()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := snap.RouteCtx(ctx, routing.RB2, mesh.C(0, 0), mesh.C(23, 23), routing.Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline route: %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

func TestBatchStreamServesAllPairs(t *testing.T) {
	f := testFaults(t, 24, 60, 2)
	snap := New(f, Options{}).Snapshot()
	pairs := usablePairs(f, 40, 9)
	want := collect(t, snap, pairs, 1)

	seen := make([]bool, len(pairs))
	for item := range snap.BatchStream(context.Background(), routing.RB2, pairs, 4, routing.Options{}) {
		if seen[item.Index] {
			t.Fatalf("pair %d streamed twice", item.Index)
		}
		seen[item.Index] = true
		if (item.Err == nil) != (want[item.Index].Err == nil) ||
			item.Res.Hops != want[item.Index].Res.Hops {
			t.Fatalf("pair %d diverges from the serial batch: %+v vs %+v",
				item.Index, item, want[item.Index])
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("pair %d never streamed", i)
		}
	}
}

// TestBatchStreamCancelIsPrompt cancels a large in-flight stream and
// requires the channel to close without serving the whole batch — the
// workers must stop claiming pairs rather than drain the backlog.
func TestBatchStreamCancelIsPrompt(t *testing.T) {
	f := testFaults(t, 32, 100, 3)
	snap := New(f, Options{}).Snapshot()
	var pairs []Pair
	for i := 0; i < 5000; i++ {
		pairs = append(pairs, Pair{S: mesh.C(i%32, (i/32)%32), D: mesh.C(31-i%32, 31-(i/32)%32)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := snap.BatchStream(ctx, routing.RB2, pairs, 2, routing.Options{})
	served := 0
	for range 5 {
		if _, ok := <-ch; !ok {
			t.Fatal("stream ended before cancellation")
		}
		served++
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if served >= len(pairs) {
					t.Fatal("stream served the full batch despite cancellation")
				}
				return
			}
			served++
		case <-deadline:
			t.Fatalf("stream did not close within 5s of cancellation (%d served)", served)
		}
	}
}

// TestBatchWorkersCappedAtGOMAXPROCS parks every walk in its first
// Options.Stop poll and counts the walks in flight: a batch asking for
// 4096 workers must run at most GOMAXPROCS walks at once. Walks are
// CPU-bound, so extra workers add only the scratch each one pins.
func TestBatchWorkersCappedAtGOMAXPROCS(t *testing.T) {
	f := testFaults(t, 8, 0, 0)
	snap := New(f, Options{}).Snapshot()
	pairs := make([]Pair, 4096)
	for i := range pairs {
		pairs[i] = Pair{S: mesh.C(0, 0), D: mesh.C(7, 7)}
	}
	var parked atomic.Int64
	release := make(chan struct{})
	opt := routing.Options{Stop: func() error {
		select {
		case <-release:
		default:
			parked.Add(1)
			<-release
		}
		return nil
	}}
	ch := snap.BatchStream(context.Background(), routing.RB2, pairs, len(pairs), opt)

	procs := int64(runtime.GOMAXPROCS(0))
	for deadline := time.Now().Add(5 * time.Second); parked.Load() < procs && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	// Workers beyond the cap would already be running: give them time to
	// reach their first poll before counting.
	time.Sleep(50 * time.Millisecond)
	inFlight := parked.Load()
	close(release)
	served := 0
	for range ch {
		served++
	}
	if inFlight != procs {
		t.Errorf("%d walks in flight with 4096 workers requested, want GOMAXPROCS = %d", inFlight, procs)
	}
	if served != len(pairs) {
		t.Errorf("stream served %d of %d pairs", served, len(pairs))
	}
}
