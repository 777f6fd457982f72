package meshroute

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFacadeConcurrentRouteAndMutate locks the package-doc promise: every
// Network method may be called from any goroutine. Readers route while a
// writer injects and repairs faults; under -race this fails if the
// transaction serialization or the engine's snapshot publication is
// wrong. Each successful response must also be self-consistent (Shortest
// iff Hops == Optimal) — one route never mixes two fault configurations.
func TestFacadeConcurrentRouteAndMutate(t *testing.T) {
	ctx := context.Background()
	net := NewSquare(16)
	if err := net.InjectRandom(20, 3); err != nil {
		t.Fatal(err)
	}

	writes := 25
	if testing.Short() {
		writes = 8
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: fault churn in a corner away from the routed pairs
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := net.AddFault(C(15, 0)); err != nil {
				t.Error(err)
				return
			}
			net.RepairFault(C(15, 0))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req := RouteRequest{Src: C((g+i)%8, i%8), Dst: C(8+(i%8), 8+((g+i)%8))}
				resp, err := net.Route(ctx, req)
				if err != nil {
					continue // endpoint faulty/unreachable under churn is fine
				}
				if resp.Oracle.Shortest != (resp.Hops == resp.Oracle.Optimal) {
					t.Errorf("inconsistent response: shortest=%v hops=%d optimal=%d",
						resp.Oracle.Shortest, resp.Hops, resp.Oracle.Optimal)
					return
				}
				if resp.Hops < resp.Oracle.Optimal {
					t.Errorf("route beat the oracle: %d < %d", resp.Hops, resp.Oracle.Optimal)
					return
				}
				net.FaultCount() // exercise a lock-free read alongside
				net.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestFacadeApplyIsAtomic is the acceptance test for the transaction API:
// a multi-edit Apply must publish as exactly one snapshot, and concurrent
// readers must never observe a partial transaction — the published fault
// count is always 0 or the full cluster, never in between, and every
// routed response's snapshot version maps to one of the two committed
// states.
func TestFacadeApplyIsAtomic(t *testing.T) {
	ctx := context.Background()
	net := NewSquare(12)
	cluster := []Coord{C(5, 5), C(5, 6), C(6, 5), C(6, 6), C(7, 5), C(7, 6), C(5, 7), C(6, 7), C(7, 7)}

	commits := 30
	if testing.Short() {
		commits = 10
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: add the whole cluster, then remove it, atomically
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < commits; i++ {
			err := net.Apply(func(tx *Tx) error {
				for _, c := range cluster {
					if err := tx.AddFault(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			err = net.Apply(func(tx *Tx) error {
				for _, c := range cluster {
					if err := tx.RepairFault(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if got := net.FaultCount(); got != 0 && got != len(cluster) {
					t.Errorf("observed partial transaction: %d faults (want 0 or %d)",
						got, len(cluster))
					return
				}
				st := net.Stats()
				if st.PublishedFaults != 0 && st.PublishedFaults != len(cluster) {
					t.Errorf("stats observed partial transaction: %+v", st)
					return
				}
				// A route pins one snapshot: its fault view is all-or-nothing.
				resp, err := net.Route(ctx, RouteRequest{Src: C(0, 0), Dst: C(11, 11)}, WithoutOracle())
				if err == nil && resp.SnapshotVersion == 0 {
					t.Error("response missing snapshot version")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Exactly one publication per committed transaction: initial snapshot
	// plus 2 per loop iteration.
	if got, want := net.Stats().SnapshotVersion, uint64(1+2*commits); got != want {
		t.Errorf("snapshot version = %d, want %d (one per transaction)", got, want)
	}
}

// TestFacadeRouteBatchHonorsPolicy pins the WithPolicy/RouteBatch
// contract: the batch path must route with the same adaptive policy as
// Route.
func TestFacadeRouteBatchHonorsPolicy(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []struct {
		name string
		p    Policy
	}{{"diagonal", PolicyDiagonal}, {"xfirst", PolicyXFirst}, {"yfirst", PolicyYFirst}} {
		net := NewSquare(16)
		if err := net.InjectRandom(30, 5); err != nil {
			t.Fatal(err)
		}
		pairs := []Pair{{S: C(0, 0), D: C(15, 15)}, {S: C(2, 1), D: C(14, 12)}}
		batch, err := net.RouteBatch(ctx, BatchRequest{Pairs: pairs}, WithPolicy(policy.p), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		items, err := batch.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items {
			if item.Err != nil {
				continue
			}
			single, err := net.Route(ctx, RouteRequest{Src: pairs[i].S, Dst: pairs[i].D}, WithPolicy(policy.p))
			if err != nil {
				t.Fatalf("%s: single route failed where batch delivered: %v", policy.name, err)
			}
			if len(single.Path) != len(item.Response.Path) {
				t.Errorf("%s pair %d: batch path len %d != single path len %d — policy not applied to batch",
					policy.name, i, len(item.Response.Path), len(single.Path))
			}
			for j := range single.Path {
				if single.Path[j] != item.Response.Path[j] {
					t.Errorf("%s pair %d: paths diverge at hop %d", policy.name, i, j)
					break
				}
			}
		}
	}
}
