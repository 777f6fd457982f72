package labeling

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// applyDelta mutates f by the given delta and returns the adds/repairs
// actually performed (skipping no-ops so the delta is exact, the contract
// fault.Diff provides in production).
func applyDelta(f *fault.Set, cands []mesh.Coord) (adds, repairs []mesh.Coord) {
	for _, c := range cands {
		if f.Faulty(c) {
			f.Remove(c)
			repairs = append(repairs, c)
		} else {
			f.Add(c)
			adds = append(adds, c)
		}
	}
	return
}

// TestUpdateMatchesCompute drives random fault sequences through
// incremental Update and checks the grid is identical to a from-scratch
// Compute after every step, under the one border rule (a missing
// neighbour reads safe), kept as its own subtest.
func TestUpdateMatchesCompute(t *testing.T) {
	t.Run("border-safe", func(t *testing.T) {
		rng := rand.New(rand.NewSource(0x1ab))
		for trial := 0; trial < 40; trial++ {
			w, h := 4+rng.Intn(14), 4+rng.Intn(14)
			m := mesh.New(w, h)
			f := fault.NewSet(m)
			prev := Compute(f)
			for step := 0; step < 12; step++ {
				cands := make([]mesh.Coord, 0, 4)
				seenc := map[mesh.Coord]bool{}
				for n := 1 + rng.Intn(4); n > 0; n-- {
					c := mesh.C(rng.Intn(w), rng.Intn(h))
					if !seenc[c] {
						seenc[c] = true
						cands = append(cands, c)
					}
				}
				adds, repairs := applyDelta(f, cands)
				res := Update(prev, adds, repairs)
				want := Compute(f)
				if !res.Grid.Equal(want) {
					t.Fatalf("trial %d step %d (%dx%d): incremental grid diverged\nadds=%v repairs=%v",
						trial, step, w, h, adds, repairs)
				}
				if res.Grid.UnsafeCount() != want.UnsafeCount() {
					t.Fatalf("trial %d step %d: unsafe count %d, want %d",
						trial, step, res.Grid.UnsafeCount(), want.UnsafeCount())
				}
				checkUnsafeNodes(t, res.Grid)
				// UnsafeFlipped must be the exact diff vs prev, and the
				// previous grid comes back exactly when no label moved.
				changed := false
				flipped := map[mesh.Coord]bool{}
				m.EachNode(func(c mesh.Coord) {
					i := m.Index(c)
					if res.Grid.label[i] != prev.label[i] {
						changed = true
					}
					if res.Grid.label[i].unsafe() != prev.label[i].unsafe() {
						flipped[c] = true
					}
				})
				if changed == (res.Grid == prev) {
					t.Fatalf("trial %d step %d: labels moved=%v but shares prev=%v",
						trial, step, changed, res.Grid == prev)
				}
				if len(res.UnsafeFlipped) != len(flipped) {
					t.Fatalf("trial %d step %d: UnsafeFlipped has %d cells, want %d",
						trial, step, len(res.UnsafeFlipped), len(flipped))
				}
				for i, c := range res.UnsafeFlipped {
					if !flipped[c] {
						t.Fatalf("trial %d step %d: UnsafeFlipped lists non-flipped cell %v", trial, step, c)
					}
					if i > 0 && m.Index(c) <= m.Index(res.UnsafeFlipped[i-1]) {
						t.Fatalf("trial %d step %d: UnsafeFlipped not in row-major order at %v", trial, step, c)
					}
				}
				if !res.Grid.Fixpoint() {
					t.Fatalf("trial %d step %d: incremental grid not a fixpoint", trial, step)
				}
				prev = res.Grid
			}
		}
	})
}

// TestUpdateEmptyDeltaShares checks the no-op delta returns the previous
// grid itself.
func TestUpdateEmptyDeltaShares(t *testing.T) {
	m := mesh.New(8, 8)
	f := fault.NewSet(m)
	f.Add(mesh.C(3, 3))
	g := Compute(f)
	res := Update(g, nil, nil)
	if res.Grid != g {
		t.Fatalf("empty delta should return the previous grid")
	}
	if res.Examined != 0 || len(res.UnsafeFlipped) != 0 {
		t.Fatalf("empty delta should do no work: %+v", res)
	}
}

// TestUpdateNoLabelMovementShares checks that a delta whose labels all
// round-trip back to the previous values shares the previous grid.
func TestUpdateNoLabelMovementShares(t *testing.T) {
	m := mesh.New(8, 8)
	f := fault.NewSet(m)
	g := Compute(f)
	// Add then repair in two steps: the second Update's result must equal
	// (and share nothing incorrect with) a fresh Compute.
	f.Add(mesh.C(4, 4))
	r1 := Update(g, []mesh.Coord{mesh.C(4, 4)}, nil)
	f.Remove(mesh.C(4, 4))
	r2 := Update(r1.Grid, nil, []mesh.Coord{mesh.C(4, 4)})
	if !r2.Grid.Equal(g) {
		t.Fatalf("add+repair round trip should restore the original labels")
	}
}
