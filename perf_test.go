package meshroute

import (
	"context"
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
)

// TestOracleFreshAfterApply locks the cache-invalidation-by-snapshot
// contract: a committed Apply transaction publishes a new snapshot with a
// fresh distance oracle, so oracle reports immediately reflect the new
// fault configuration.
func TestOracleFreshAfterApply(t *testing.T) {
	ctx := context.Background()
	net := NewSquare(8)
	req := RouteRequest{Src: C(0, 0), Dst: C(7, 0)}
	before, err := net.Route(ctx, req)
	if err != nil {
		t.Fatalf("route on clean mesh: %v", err)
	}
	if before.Oracle.Optimal != 7 {
		t.Fatalf("clean-mesh optimal = %d, want 7", before.Oracle.Optimal)
	}
	// Wall off the direct row: the shortest path must lengthen.
	if err := net.Apply(func(tx *Tx) error {
		tx.AddFault(C(3, 0))
		tx.AddFault(C(3, 1))
		return nil
	}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	after, err := net.Route(ctx, req)
	if err != nil {
		t.Fatalf("route after apply: %v", err)
	}
	want := spath.Distance(net.Engine().Snapshot().Faults(), req.Src, req.Dst)
	if int32(after.Oracle.Optimal) != want {
		t.Fatalf("post-apply optimal = %d, fresh BFS says %d", after.Oracle.Optimal, want)
	}
	if after.Oracle.Optimal <= before.Oracle.Optimal {
		t.Fatalf("optimal did not grow across the wall: %d -> %d", before.Oracle.Optimal, after.Oracle.Optimal)
	}
	if after.SnapshotVersion == before.SnapshotVersion {
		t.Fatal("apply did not publish a new snapshot")
	}
}

// TestOracleConcurrentReadersOneSnapshot hammers one published snapshot's
// oracle through the facade from many goroutines: every reader must see
// the distances an independent BFS computes, concurrently with cache
// fills and evictions (run under -race in the race target).
func TestOracleConcurrentReadersOneSnapshot(t *testing.T) {
	ctx := context.Background()
	net := NewSquare(16)
	if err := net.Apply(func(tx *Tx) error { return tx.InjectRandom(30, 7) }); err != nil {
		t.Fatalf("inject: %v", err)
	}
	snap := net.Engine().Snapshot()
	type pair struct{ s, d Coord }
	var pairs []pair
	var want []int32
	for x := 0; x < 16; x += 3 {
		for y := 1; y < 16; y += 4 {
			s, d := C(x, y), C(15-x, 15-y)
			if snap.Faults().Faulty(s) || snap.Faults().Faulty(d) || s == d {
				continue
			}
			pairs = append(pairs, pair{s, d})
			want = append(want, spath.Distance(snap.Faults(), s, d))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, p := range pairs {
					if got := snap.Oracle().Dist(p.s, p.d); got != want[i] {
						t.Errorf("concurrent Dist(%v,%v) = %d, want %d", p.s, p.d, got, want[i])
						return
					}
					if want[i] >= spath.Infinite {
						continue
					}
					resp, err := net.Route(ctx, RouteRequest{Src: p.s, Dst: p.d})
					if err != nil {
						t.Errorf("route %v->%v: %v", p.s, p.d, err)
						return
					}
					if int32(resp.Oracle.Optimal) != want[i] {
						t.Errorf("oracle report %v->%v = %d, want %d", p.s, p.d, resp.Oracle.Optimal, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFacadeRouteSteadyStateAllocs pins the serving path's allocation
// budget: once the snapshot's scratch pool is warm, an oracle-free Route
// through the full facade (request validation, engine dispatch, walk,
// response assembly) stays within a small constant number of allocations.
func TestFacadeRouteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	ctx := context.Background()
	net := NewSquare(32)
	if err := net.Apply(func(tx *Tx) error { return tx.InjectRandom(100, 5) }); err != nil {
		t.Fatalf("inject: %v", err)
	}
	snap := net.Engine().Snapshot()
	var s, d Coord
	for x := 0; ; x++ {
		if !snap.Faults().Faulty(C(x, 0)) {
			s = C(x, 0)
			break
		}
	}
	for x := 31; ; x-- {
		if !snap.Faults().Faulty(C(x, 31)) {
			d = C(x, 31)
			break
		}
	}
	req := RouteRequest{Src: s, Dst: d}
	route := func() {
		if _, err := net.Route(ctx, req, WithoutOracle()); err != nil {
			t.Fatalf("route: %v", err)
		}
	}
	route() // warm the pool
	const budget = 24
	if avg := testing.AllocsPerRun(100, route); avg > budget {
		t.Errorf("steady-state facade Route allocates %.1f objects/op, want <= %d", avg, budget)
	}
}

// TestBatchScratchPanics locks the worker-scratch ownership rule: batch
// options must not smuggle a caller scratch across the pool.
func TestBatchScratchPanics(t *testing.T) {
	net := NewSquare(8)
	defer func() {
		if recover() == nil {
			t.Fatal("batch with a caller scratch did not panic")
		}
	}()
	opts := routing.Options{Scratch: routing.NewScratch(mesh.Square(8))}
	net.Engine().Snapshot().BatchStream(context.Background(), RB2, []Pair{{S: C(0, 0), D: C(7, 7)}}, 2, opts)
}
