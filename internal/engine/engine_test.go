package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
)

func testFaults(t testing.TB, n, count int, seed int64) *fault.Set {
	t.Helper()
	m := mesh.Square(n)
	return fault.Uniform{}.Generate(m, count, rand.New(rand.NewSource(seed)))
}

// usablePairs samples pairs with non-faulty, mutually reachable endpoints.
func usablePairs(f *fault.Set, count int, seed int64) []Pair {
	m := f.Mesh()
	r := rand.New(rand.NewSource(seed))
	var out []Pair
	for len(out) < count {
		s := mesh.C(r.Intn(m.Width()), r.Intn(m.Height()))
		d := mesh.C(r.Intn(m.Width()), r.Intn(m.Height()))
		if s == d || f.Faulty(s) || f.Faulty(d) {
			continue
		}
		if spath.Distance(f, s, d) >= spath.Infinite {
			continue
		}
		out = append(out, Pair{S: s, D: d})
	}
	return out
}

// collect drains one RB2 BatchStream on snap into input order.
func collect(t testing.TB, snap *Snapshot, pairs []Pair, workers int) []BatchItem {
	t.Helper()
	out := make([]BatchItem, len(pairs))
	served := 0
	for item := range snap.BatchStream(context.Background(), routing.RB2, pairs, workers, routing.Options{}) {
		out[item.Index] = item
		served++
	}
	if served != len(pairs) {
		t.Fatalf("stream served %d of %d pairs", served, len(pairs))
	}
	return out
}

func TestRouteMatchesDirectRouting(t *testing.T) {
	f := testFaults(t, 24, 60, 1)
	snap := New(f, Options{}).Snapshot()
	a := routing.NewAnalysis(f.Clone())
	for _, p := range usablePairs(f, 32, 7) {
		for _, al := range []routing.Algo{routing.Ecube, routing.RB1, routing.RB2, routing.RB3} {
			got, err := snap.Route(al, p.S, p.D, routing.Options{})
			if err != nil {
				t.Fatalf("%v %v->%v: %v", al, p.S, p.D, err)
			}
			want := routing.Route(a, al, p.S, p.D, routing.Options{})
			if got.Delivered != want.Delivered || got.Hops != want.Hops {
				t.Fatalf("%v %v->%v: engine (%v,%d) != direct (%v,%d)",
					al, p.S, p.D, got.Delivered, got.Hops, want.Delivered, want.Hops)
			}
		}
	}
}

func TestRouteRejectsBadEndpoints(t *testing.T) {
	m := mesh.Square(8)
	f := fault.FromCoords(m, mesh.C(3, 3))
	snap := New(f, Options{}).Snapshot()
	if _, err := snap.Route(routing.RB2, mesh.C(3, 3), mesh.C(7, 7), routing.Options{}); err == nil {
		t.Error("faulty source accepted")
	}
	if _, err := snap.Route(routing.RB2, mesh.C(0, 0), mesh.C(9, 9), routing.Options{}); err == nil {
		t.Error("outside destination accepted")
	}
}

// TestExcludedModelAborts routes RB1 and RB3 on a router built with B2
// only, from several goroutines at once. Each walk must come back
// undelivered with an Abort naming its missing model, without building
// that model's store on the shared snapshot, while RB2 routes exactly as
// on a router with every model.
func TestExcludedModelAborts(t *testing.T) {
	f := testFaults(t, 24, 60, 1)
	snap := New(f, Options{Models: []info.Model{info.B2}}).Snapshot()
	full := New(f, Options{}).Snapshot()
	pairs := usablePairs(f, 16, 7)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pairs {
				for _, al := range []routing.Algo{routing.RB1, routing.RB3} {
					res, err := snap.Route(al, p.S, p.D, routing.Options{})
					if err != nil || res.Delivered || !strings.Contains(res.Abort, al.Model().String()) {
						errs <- fmt.Errorf("%v %v->%v on a B2-only router: delivered=%v abort=%q err=%v, want an abort naming %v",
							al, p.S, p.D, res.Delivered, res.Abort, err, al.Model())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, mod := range []info.Model{info.B1, info.B3} {
		if snap.Analysis().Store(mod, mesh.NE) != nil {
			t.Errorf("routing built the excluded %v store", mod)
		}
	}
	delivered := 0
	for _, p := range pairs {
		got, err := snap.Route(routing.RB2, p.S, p.D, routing.Options{})
		want, _ := full.Route(routing.RB2, p.S, p.D, routing.Options{})
		if err != nil || got.Delivered != want.Delivered || got.Hops != want.Hops {
			t.Fatalf("RB2 %v->%v: B2-only router (%v,%d,%v) != full router (%v,%d)",
				p.S, p.D, got.Delivered, got.Hops, err, want.Delivered, want.Hops)
		}
		if got.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("RB2 delivered no pair on the B2-only router")
	}
}

func TestRouteBatchOrderAndConsistency(t *testing.T) {
	f := testFaults(t, 24, 60, 2)
	snap := New(f, Options{}).Snapshot()
	pairs := usablePairs(f, 40, 9)
	serial := collect(t, snap, pairs, 1)
	pooled := collect(t, snap, pairs, 8)
	for i := range pairs {
		if pooled[i].Pair != pairs[i] {
			t.Fatalf("result %d out of order: %v != %v", i, pooled[i].Pair, pairs[i])
		}
		if (serial[i].Err == nil) != (pooled[i].Err == nil) ||
			serial[i].Res.Hops != pooled[i].Res.Hops ||
			serial[i].Res.Delivered != pooled[i].Res.Delivered {
			t.Fatalf("result %d differs across worker counts: %+v vs %+v", i, serial[i], pooled[i])
		}
	}
}

func TestSwapPublishesNewVersion(t *testing.T) {
	f := testFaults(t, 16, 20, 3)
	eng := New(f, Options{})
	if v := eng.Version(); v != 1 {
		t.Fatalf("initial version = %d", v)
	}
	s1 := eng.Snapshot()
	next := f.Clone()
	next.Add(mesh.C(0, 0))
	s2 := eng.Swap(next)
	if s2.Version() <= s1.Version() {
		t.Fatalf("swap did not advance version: %d -> %d", s1.Version(), s2.Version())
	}
	if eng.Snapshot() != s2 {
		t.Error("swap not published")
	}
	// The old snapshot stays valid and unchanged.
	if s1.Faults().Faulty(mesh.C(0, 0)) {
		t.Error("old snapshot mutated by swap")
	}
}

// TestUpdateIsReadCopyUpdate pins Swap's copy: the published snapshot
// owns a clone, so an edit the caller makes later to the set it passed
// must not reach it.
func TestUpdateIsReadCopyUpdate(t *testing.T) {
	f := testFaults(t, 16, 0, 0)
	eng := New(f, Options{})
	f.Add(mesh.C(5, 5))
	eng.Swap(f)
	f.Add(mesh.C(6, 6))
	if !eng.Snapshot().Faults().Faulty(mesh.C(5, 5)) {
		t.Error("swap not applied")
	}
	if eng.Snapshot().Faults().Faulty(mesh.C(6, 6)) {
		t.Error("a later edit of the caller's set leaked into the snapshot")
	}
	if eng.Version() != 2 {
		t.Errorf("version = %d, want 2", eng.Version())
	}
}

// TestConcurrentRouteDuringSwap hammers Snapshot().Route from many
// goroutines while a writer continuously swaps fault configurations in
// and out. Under -race this fails if snapshotting is wrong anywhere (torn
// analysis, shared walk state). Each delivered result must also be
// internally consistent with the *snapshot version* that served it,
// proving queries never mix two configurations.
func TestConcurrentRouteDuringSwap(t *testing.T) {
	readers, queries, swaps := 8, 300, 30
	if testing.Short() {
		readers, queries, swaps = 4, 100, 8
	}
	base := testFaults(t, 16, 26, 4)
	alt := testFaults(t, 16, 26, 5)
	eng := New(base, Options{})
	// Pairs usable under both configurations so every query is answerable.
	var pairs []Pair
	for _, p := range usablePairs(base, 200, 11) {
		if !alt.Faulty(p.S) && !alt.Faulty(p.D) &&
			spath.Distance(alt, p.S, p.D) < spath.Infinite {
			pairs = append(pairs, p)
		}
		if len(pairs) >= 24 {
			break
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs usable under both configurations")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				eng.Swap(alt)
			} else {
				eng.Swap(base)
			}
		}
		stop.Store(true)
	}()
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < queries || !stop.Load(); q++ {
				p := pairs[(g+q)%len(pairs)]
				snap := eng.Snapshot()
				res, err := eng.Snapshot().Route(routing.RB2, p.S, p.D, routing.Options{})
				if err != nil {
					errs <- err
					return
				}
				// The result's version must be a real published version,
				// at least as new as the snapshot observed before the call.
				if res.Version < snap.Version() || res.Version > eng.Version() {
					errs <- fmt.Errorf("result version %d outside window [%d, now]",
						res.Version, snap.Version())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentBatchDuringUpdate drives BatchStream concurrently with
// fault swaps; every batch must come back fully served by the snapshot
// it was started on.
func TestConcurrentBatchDuringUpdate(t *testing.T) {
	f := testFaults(t, 20, 30, 6)
	eng := New(f, Options{})
	pairs := usablePairs(f, 16, 13)
	failed := f.Clone()
	failed.Add(mesh.C(19, 19))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			eng.Swap(failed)
			eng.Swap(f)
		}
	}()
	for i := 0; i < 30; i++ {
		snap := eng.Snapshot()
		for j, item := range collect(t, snap, pairs, 4) {
			if item.Err == nil && item.Res.Version != snap.Version() {
				t.Fatalf("batch %d result %d served by snapshot %d, batch started on %d",
					i, j, item.Res.Version, snap.Version())
			}
		}
	}
	wg.Wait()
}
