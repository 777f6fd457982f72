package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/mesh"
)

// TestOnPublishDeltaAndOrder locks the publish-hook contract: every Swap
// fires OnPublish exactly once, versions arrive strictly monotone with no
// gaps, and each delta is the exact fault transition against the
// previously published snapshot.
func TestOnPublishDeltaAndOrder(t *testing.T) {
	m := mesh.Square(8)
	type event struct {
		version uint64
		delta   Delta
	}
	var events []event
	r := New(fault.NewSet(m), Options{
		OnPublish: func(v uint64, d Delta) { events = append(events, event{v, d}) },
	})
	if len(events) != 0 {
		t.Fatalf("initial snapshot fired OnPublish: %v", events)
	}

	f1 := fault.FromCoords(m, mesh.C(1, 1), mesh.C(2, 2))
	r.Swap(f1)
	r.Swap(fault.FromCoords(m, mesh.C(2, 2), mesh.C(5, 5)))
	r.Swap(fault.NewSet(m)) // clear everything

	want := []event{
		{2, Delta{Adds: []mesh.Coord{mesh.C(1, 1), mesh.C(2, 2)}}},
		{3, Delta{Adds: []mesh.Coord{mesh.C(5, 5)}, Repairs: []mesh.Coord{mesh.C(1, 1)}}},
		{4, Delta{Repairs: []mesh.Coord{mesh.C(2, 2), mesh.C(5, 5)}}},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("publish events\n got %+v\nwant %+v", events, want)
	}
	if v := r.Version(); v != 4 {
		t.Fatalf("router version = %d, want 4", v)
	}
}

// TestOnPublishConcurrentWritersNoGaps hammers Swap from many goroutines:
// the hook must observe one event per publication, in strictly increasing
// version order (the hook runs inside the writer critical section).
func TestOnPublishConcurrentWritersNoGaps(t *testing.T) {
	m := mesh.Square(6)
	var versions []uint64
	r := New(fault.NewSet(m), Options{
		Models:    []info.Model{info.B2},
		OnPublish: func(v uint64, _ Delta) { versions = append(versions, v) },
	})
	const writers, swapsPer = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < swapsPer; i++ {
				r.Swap(fault.FromCoords(m, mesh.C(w, i%6)))
			}
		}(w)
	}
	wg.Wait()
	if len(versions) != writers*swapsPer {
		t.Fatalf("hook fired %d times, want %d", len(versions), writers*swapsPer)
	}
	for i, v := range versions {
		if want := uint64(i + 2); v != want {
			t.Fatalf("hook version[%d] = %d, want %d (monotone, gap-free)", i, v, want)
		}
	}
}

// TestStartVersion locks the recovery seed: the initial snapshot publishes
// as StartVersion and later publications continue the sequence.
func TestStartVersion(t *testing.T) {
	m := mesh.Square(4)
	r := New(fault.NewSet(m), Options{StartVersion: 41, Models: []info.Model{info.B2}})
	if v := r.Version(); v != 41 {
		t.Fatalf("initial version = %d, want 41", v)
	}
	s := r.Swap(fault.FromCoords(m, mesh.C(1, 1)))
	if s.Version() != 42 {
		t.Fatalf("post-swap version = %d, want 42", s.Version())
	}
}

// TestFaultDiff locks the row-major deterministic diff the journal and
// watch layers depend on.
func TestFaultDiff(t *testing.T) {
	m := mesh.Square(4)
	prev := fault.FromCoords(m, mesh.C(0, 0), mesh.C(3, 1), mesh.C(2, 2))
	next := fault.FromCoords(m, mesh.C(3, 1), mesh.C(1, 0), mesh.C(0, 3))
	adds, repairs := fault.Diff(prev, next)
	wantAdds := []mesh.Coord{mesh.C(1, 0), mesh.C(0, 3)}
	wantRepairs := []mesh.Coord{mesh.C(0, 0), mesh.C(2, 2)}
	if !reflect.DeepEqual(adds, wantAdds) || !reflect.DeepEqual(repairs, wantRepairs) {
		t.Fatalf("Diff = (%v, %v), want (%v, %v)", adds, repairs, wantAdds, wantRepairs)
	}
	if adds, repairs := fault.Diff(next, next); adds != nil || repairs != nil {
		t.Fatalf("self-diff = (%v, %v), want empty", adds, repairs)
	}
}
