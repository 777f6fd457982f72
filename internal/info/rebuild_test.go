package info

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// storesEqual compares two stores observationally: per-node triple lists
// in order (by component ID and kind — order matters to findSequenceB3's
// tie-break), relation tables in order, and the propagation accounting.
func storesEqual(t *testing.T, got, want *Store) {
	t.Helper()
	if got.participants != want.participants {
		t.Fatalf("participants %d, want %d", got.participants, want.participants)
	}
	if got.messages != want.messages {
		t.Fatalf("messages %d, want %d", got.messages, want.messages)
	}
	for idx := 0; idx < want.m.Nodes(); idx++ {
		g, w := got.TriplesAt(want.m.CoordOf(idx)), want.TriplesAt(want.m.CoordOf(idx))
		if len(g) != len(w) {
			t.Fatalf("node %d: %d triples, want %d", idx, len(g), len(w))
		}
		for i := range w {
			if g[i].F.ID != w[i].F.ID || g[i].Kind != w[i].Kind {
				t.Fatalf("node %d triple %d: (%d,%v), want (%d,%v)",
					idx, i, g[i].F.ID, g[i].Kind, w[i].F.ID, w[i].Kind)
			}
		}
	}
	for _, a := range mcc.Axes {
		gm, wm := got.succOf[a], want.succOf[a]
		if len(gm) != len(wm) {
			t.Fatalf("relation table %v: %d preds, want %d", a, len(gm), len(wm))
		}
		for pred, wsucc := range wm {
			gsucc := gm[pred]
			if len(gsucc) != len(wsucc) {
				t.Fatalf("pred %d: %d succs, want %d", pred, len(gsucc), len(wsucc))
			}
			for i := range wsucc {
				if gsucc[i].ID != wsucc[i].ID {
					t.Fatalf("pred %d succ %d: ID %d, want %d", pred, i, gsucc[i].ID, wsucc[i].ID)
				}
			}
		}
	}
}

// TestRebuildMatchesBuild drives random fault deltas through the full
// incremental chain (labeling.Update -> mcc.UpdateSet -> Rebuild) and
// checks the rebuilt store is identical to a from-scratch Build at every
// step, for all three models. The last trials are dense (24x24 at 15-25%
// faults), so floods cross joined regions and a delta replays some
// components while re-walking their neighbors.
func TestRebuildMatchesBuild(t *testing.T) {
	for _, model := range []Model{B1, B2, B3} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xb0b + int64(model)))
			for trial := 0; trial < 15; trial++ {
				w, h := 5+rng.Intn(14), 5+rng.Intn(14)
				faults := rng.Intn(6)
				if trial >= 12 {
					w, h = 24, 24
					faults = w * h * (15 + rng.Intn(11)) / 100
				}
				m := mesh.New(w, h)
				f := fault.NewSet(m)
				for n := faults; n > 0; n-- {
					f.Add(mesh.C(rng.Intn(w), rng.Intn(h)))
				}
				grid := labeling.Compute(f)
				set := mcc.Extract(grid)
				store := Build(model, set)
				for step := 0; step < 8; step++ {
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
					var carried map[*mcc.MCC]*mcc.MCC
					set, carried = mcc.UpdateSet(set, grid, res.UnsafeFlipped)
					store = Rebuild(store, set, carried, res.UnsafeFlipped)
					storesEqual(t, store, Build(model, set))
				}
			}
		})
	}
}

// TestRebuildSharesLogs checks that a far-away delta replays an
// untouched component's log by pointer-shared position slices.
func TestRebuildSharesLogs(t *testing.T) {
	m := mesh.New(30, 30)
	f := fault.NewSet(m)
	f.Add(mesh.C(25, 25)) // walks run south/west: keep the other fault north-east
	grid := labeling.Compute(f)
	set := mcc.Extract(grid)
	store := Build(B2, set)

	add := mesh.C(2, 27)
	f.Add(add)
	res := labeling.Update(grid, []mesh.Coord{add}, nil)
	set2, carried := mcc.UpdateSet(set, res.Grid, res.UnsafeFlipped)
	next := Rebuild(store, set2, carried, res.UnsafeFlipped)
	storesEqual(t, next, Build(B2, set2))

	// The (25,25) component is untouched; its replayed log must share the
	// deposit slice with the previous store's log.
	var oldLog, newLog *compLog
	for _, g := range set.All() {
		if g.X0 == 25 {
			oldLog = store.logs[g.ID]
		}
	}
	for _, g := range set2.All() {
		if g.X0 == 25 {
			newLog = next.logs[g.ID]
		}
	}
	if oldLog == nil || newLog == nil {
		t.Fatalf("component not found")
	}
	if len(newLog.deposits) == 0 || &newLog.deposits[0] != &oldLog.deposits[0] {
		t.Fatalf("untouched component's deposit log should be shared, not rebuilt")
	}
}
