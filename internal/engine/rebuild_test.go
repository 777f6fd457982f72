package engine

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/routing"
)

// TestIncrementalSwapMatchesFull publishes a random delta sequence and
// checks every delta-built snapshot routes identically to a from-scratch
// snapshot of the same configuration.
func TestIncrementalSwapMatchesFull(t *testing.T) {
	m := mesh.New(14, 14)
	f := fault.NewSet(m)
	r := New(f, Options{})
	rng := rand.New(rand.NewSource(0xe4e))
	for step := 0; step < 8; step++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c := mesh.C(rng.Intn(14), rng.Intn(14))
			if f.Faulty(c) {
				f.Remove(c)
			} else {
				f.Add(c)
			}
		}
		snap := r.Swap(f)
		ref := NewSnapshot(f, Options{})
		for q := 0; q < 30; q++ {
			s := mesh.C(rng.Intn(14), rng.Intn(14))
			d := mesh.C(rng.Intn(14), rng.Intn(14))
			for _, algo := range []routing.Algo{routing.Ecube, routing.RB1, routing.RB2, routing.RB3} {
				got, gerr := snap.Route(algo, s, d, routing.Options{})
				want, werr := ref.Route(algo, s, d, routing.Options{})
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d %v %v->%v: err %v vs %v", step, algo, s, d, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if got.Delivered != want.Delivered || len(got.Path) != len(want.Path) {
					t.Fatalf("step %d %v %v->%v: %v/%d vs %v/%d",
						step, algo, s, d, got.Delivered, len(got.Path), want.Delivered, len(want.Path))
				}
				for i := range want.Path {
					if got.Path[i] != want.Path[i] {
						t.Fatalf("step %d %v %v->%v: path differs at %d", step, algo, s, d, i)
					}
				}
			}
		}
	}
	st := r.RebuildStats()
	if st.DeltaBuilds == 0 {
		t.Fatalf("small deltas should take the incremental path: %+v", st)
	}
	if st.RebuildCells == 0 {
		t.Fatalf("incremental publications should examine cells: %+v", st)
	}
}

// TestFullRebuildFallback checks that a wholesale replacement falls back
// to the full precompute path.
func TestFullRebuildFallback(t *testing.T) {
	m := mesh.New(8, 8)
	r := New(fault.NewSet(m), Options{})
	many := fault.NewSet(m)
	for i := 0; i < m.Nodes(); i += 2 {
		many.Add(m.CoordOf(i))
	}
	r.Swap(many)
	st := r.RebuildStats()
	if st.FullBuilds != 1 || st.DeltaBuilds != 0 {
		t.Fatalf("replacing half the mesh should be a full rebuild: %+v", st)
	}
}

// TestOracleStatsMonotoneAcrossPublish checks the oracle attribution:
// hit/miss totals accumulate across snapshot replacement instead of
// resetting, and each published snapshot starts with an empty cache, so
// a warm source costs exactly one refill miss after a publication.
func TestOracleStatsMonotoneAcrossPublish(t *testing.T) {
	m := mesh.New(9, 9)
	f := fault.NewSet(m)
	for y := 0; y < 9; y++ {
		f.Add(mesh.C(4, y)) // wall: two disconnected halves
	}
	r := New(f, Options{})
	snap := r.Snapshot()
	snap.Oracle().Field(mesh.C(1, 1))
	snap.Oracle().Field(mesh.C(1, 1))
	h0, m0 := snap.Oracle().Stats()
	if h0 != 1 || m0 != 1 {
		t.Fatalf("warmup stats %d/%d, want 1/1", h0, m0)
	}

	// Publish a delta confined to the east half: the west field's
	// distances are unchanged, but the new snapshot refills it.
	f.Add(mesh.C(7, 7))
	r.Swap(f)
	next := r.Snapshot()
	if next.Oracle().Len() != 0 {
		t.Fatalf("published snapshot's oracle holds %d fields, want an empty cache", next.Oracle().Len())
	}
	next.Oracle().Field(mesh.C(1, 1)) // refill
	next.Oracle().Field(mesh.C(1, 1)) // hit on the refilled field
	h1, m1 := next.Oracle().Stats()
	if h1 != 2 || m1 != 2 {
		t.Fatalf("post-publish stats %d/%d, want 2/2 (monotone continuation, one refill miss)", h1, m1)
	}
	st := r.RebuildStats()
	if st.OracleHits != 2 || st.OracleMisses != 2 {
		t.Fatalf("router stats %+v, want hits=2 misses=2", st)
	}
}
