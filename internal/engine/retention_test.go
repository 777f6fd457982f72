package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"repro/internal/info"
	"repro/internal/mcc"
	"repro/internal/mesh"
	"repro/internal/routing"
)

// TestRetiredSnapshotsAreCollectable routes once on each of four
// snapshots, swapping after each, and requires that one GC frees every
// retired snapshot together with its analysis and MCC sets. Pooled walk
// scratches outlive snapshots by design; nothing they keep, and no pool a
// snapshot owns, may pin the state of a snapshot that has been replaced.
// Automatic collection is off until then, so no collection during the
// swaps can age a pool's contents out early and hide a retention.
func TestRetiredSnapshotsAreCollectable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f := testFaults(t, 24, 40, 5)
	r := New(f, Options{Models: []info.Model{info.B2}})
	pairs := usablePairs(f, 4, 6)
	var snaps []weak.Pointer[Snapshot]
	var analyses []weak.Pointer[routing.Analysis]
	var sets []weak.Pointer[mcc.Set]
	for i, p := range pairs {
		s, a, set := routeOnce(t, r, p)
		snaps = append(snaps, s)
		analyses = append(analyses, a)
		sets = append(sets, set)
		// A fault on a previously safe cell flips cells in every
		// orientation, so no set or store is shared with the successor.
		c := mesh.C(i, 23)
		if f.Faulty(c) {
			t.Fatalf("fixture cell %v already faulty", c)
		}
		f.Add(c)
		r.Swap(f)
	}
	runtime.GC()
	for i := range snaps {
		if snaps[i].Value() != nil || analyses[i].Value() != nil || sets[i].Value() != nil {
			t.Errorf("retired snapshot %d still reachable after GC (snapshot %t, analysis %t, set %t)",
				i, snaps[i].Value() != nil, analyses[i].Value() != nil, sets[i].Value() != nil)
		}
	}
}

// routeOnce serves one cancellable RB2 route on the current snapshot and
// returns weak handles to the state it used.
func routeOnce(t *testing.T, r *Router, p Pair) (weak.Pointer[Snapshot], weak.Pointer[routing.Analysis], weak.Pointer[mcc.Set]) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := r.Snapshot()
	if _, err := s.RouteCtx(ctx, routing.RB2, p.S, p.D, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	return weak.Make(s), weak.Make(s.Analysis()), weak.Make(s.Analysis().MCCs(mesh.NE))
}
