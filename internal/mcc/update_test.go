package mcc

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

// setsEqual compares two Sets structurally: component order, profiles,
// byCell mapping, spatial indices, and successor orders.
func setsEqual(t *testing.T, got, want *Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("component count %d, want %d", got.Len(), want.Len())
	}
	mccEq := func(a, b *MCC) bool {
		if a.ID != b.ID || a.X0 != b.X0 || a.X1 != b.X1 || a.Y0 != b.Y0 || a.Y1 != b.Y1 || a.Cells != b.Cells {
			return false
		}
		for i := range a.ColLo {
			if a.ColLo[i] != b.ColLo[i] || a.ColHi[i] != b.ColHi[i] {
				return false
			}
		}
		for i := range a.RowLo {
			if a.RowLo[i] != b.RowLo[i] || a.RowHi[i] != b.RowHi[i] {
				return false
			}
		}
		return true
	}
	for i := range want.all {
		if !mccEq(got.all[i], want.all[i]) {
			t.Fatalf("component %d differs:\n got %+v\nwant %+v", i, got.all[i], want.all[i])
		}
	}
	for i := range want.byCell {
		if got.byCell[i] != want.byCell[i] {
			t.Fatalf("byCell[%d] = %d, want %d", i, got.byCell[i], want.byCell[i])
		}
	}
	idsOf := func(list []*MCC) []int {
		ids := make([]int, len(list))
		for i, f := range list {
			ids[i] = f.ID
		}
		return ids
	}
	idListEq := func(a, b []*MCC) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	for _, a := range Axes {
		for p := range want.lines[a] {
			if !idListEq(got.lines[a][p], want.lines[a][p]) {
				t.Fatalf("lines[%v][%d] = %v, want %v", a, p, idsOf(got.lines[a][p]), idsOf(want.lines[a][p]))
			}
		}
		for i := range want.all {
			if !idListEq(got.succ[a][i], want.succ[a][i]) {
				t.Fatalf("succ[%v][%d] = %v, want %v", a, i, idsOf(got.succ[a][i]), idsOf(want.succ[a][i]))
			}
		}
	}
}

// TestUpdateSetMatchesExtract drives random fault sequences through
// incremental relabeling + UpdateSet and compares against a from-scratch
// Extract after every step, under the one border rule (a missing
// neighbour reads safe), kept as its own subtest.
func TestUpdateSetMatchesExtract(t *testing.T) {
	t.Run("border-safe", func(t *testing.T) {
		rng := rand.New(rand.NewSource(0x5e7))
		for trial := 0; trial < 30; trial++ {
			w, h := 4+rng.Intn(12), 4+rng.Intn(12)
			m := mesh.New(w, h)
			f := fault.NewSet(m)
			grid := labeling.Compute(f)
			set := Extract(grid)
			for step := 0; step < 10; step++ {
				var adds, repairs []mesh.Coord
				seen := map[mesh.Coord]bool{}
				for n := 1 + rng.Intn(4); n > 0; n-- {
					c := mesh.C(rng.Intn(w), rng.Intn(h))
					if seen[c] {
						continue
					}
					seen[c] = true
					if f.Faulty(c) {
						f.Remove(c)
						repairs = append(repairs, c)
					} else {
						f.Add(c)
						adds = append(adds, c)
					}
				}
				res := labeling.Update(grid, adds, repairs)
				grid = res.Grid
				prev := set
				var carried map[*MCC]*MCC
				set, carried = UpdateSet(set, grid, res.UnsafeFlipped)
				setsEqual(t, set, Extract(grid))
				for old, nw := range carried {
					if old.X0 != nw.X0 || old.Y0 != nw.Y0 || old.Cells != nw.Cells {
						t.Fatalf("carried map pairs different geometry: %+v -> %+v", old, nw)
					}
					if set.all[nw.ID] != nw {
						t.Fatalf("carried target not in new set at its ID")
					}
				}
				_ = prev
				if err := set.Validate(); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
		}
	})
}

// TestUpdateSetSharesWhenUnflipped checks that a no-flip delta shares
// every geometric structure with the previous set.
func TestUpdateSetSharesWhenUnflipped(t *testing.T) {
	m := mesh.New(10, 10)
	f := fault.NewSet(m)
	f.Add(mesh.C(2, 2))
	f.Add(mesh.C(7, 7))
	grid := labeling.Compute(f)
	set := Extract(grid)

	next, carried := UpdateSet(set, grid, nil)
	if next != set {
		t.Fatalf("same grid, no flips: should return prev set itself")
	}
	if len(carried) != set.Len() {
		t.Fatalf("no-flip carry should cover all %d components, got %d", set.Len(), len(carried))
	}

	// A different grid pointer with no flips shares components but carries
	// the new grid.
	grid2 := labeling.Compute(f)
	next, _ = UpdateSet(set, grid2, nil)
	if next == set {
		t.Fatalf("new grid pointer must produce a new set header")
	}
	if next.Grid() != grid2 {
		t.Fatalf("shared set must carry the new grid")
	}
	if len(next.all) != len(set.all) || (len(set.all) > 0 && next.all[0] != set.all[0]) {
		t.Fatalf("no-flip update must share component pointers")
	}
}

// TestUpdateSetSharesUntouchedComponents checks pointer-level structural
// sharing: a far-away fault leaves an existing component's *MCC reused.
func TestUpdateSetSharesUntouchedComponents(t *testing.T) {
	m := mesh.New(20, 20)
	f := fault.NewSet(m)
	f.Add(mesh.C(2, 2)) // component 0, untouched throughout
	grid := labeling.Compute(f)
	set := Extract(grid)
	first := set.All()[0]

	f.Add(mesh.C(15, 15))
	res := labeling.Update(grid, []mesh.Coord{mesh.C(15, 15)}, nil)
	next, carried := UpdateSet(set, res.Grid, res.UnsafeFlipped)
	if next.All()[0] != first {
		t.Fatalf("untouched component with stable ID should be shared by pointer")
	}
	if carried[first] != first {
		t.Fatalf("carried map should identity-map the untouched component")
	}
	setsEqual(t, next, Extract(res.Grid))
}
