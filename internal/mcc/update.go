package mcc

import (
	"sort"

	"repro/internal/labeling"
	"repro/internal/mesh"
)

// UpdateSet rebuilds the MCC set incrementally after a relabeling. prev
// must be the set extracted from the previous grid, g the new grid, and
// flipped the exact cells whose Unsafe status differs between the two
// (labeling.UpdateResult.UnsafeFlipped). The result is identical to
// Extract(g) — same IDs, profiles, indices, and successor orders — but
// only components whose cells intersect the flipped region (directly or
// by 4-connectivity through it) are re-flooded; everything else is
// shared structurally with prev.
//
// Sharing notes: untouched *MCC values are reused by pointer when their
// ID is stable and shallow-copied (profile slices shared) when the ID
// shifted; prev is never mutated, so concurrent readers of the previous
// snapshot are unaffected.
//
// The second result maps every surviving previous component to its
// representative in the new set (itself, or its ID-shifted copy);
// replaced components are absent. info.Rebuild keys its contribution
// replay on this provenance.
func UpdateSet(prev *Set, g *labeling.Grid, flipped []mesh.Coord) (*Set, map[*MCC]*MCC) {
	m := g.Mesh()
	if len(flipped) == 0 {
		carried := make(map[*MCC]*MCC, len(prev.all))
		for _, f := range prev.all {
			carried[f] = f
		}
		if prev.grid == g {
			return prev, carried
		}
		// Labels may have changed kind (useless <-> can't-reach) without
		// moving the safe/unsafe partition: every geometric structure is
		// identical, only the grid pointer advances.
		s := *prev
		s.grid = g
		return &s, carried
	}

	// Components invalidated by the delta: every component that lost a
	// cell, plus (discovered during flooding) every component 4-connected
	// to a newly unsafe cell — growth can merge it with others.
	replaced := make(map[int32]bool)
	var pending []int32 // replaced components whose surviving cells still need flood seeds
	markReplaced := func(id int32) {
		if !replaced[id] {
			replaced[id] = true
			pending = append(pending, id)
		}
	}
	var newlyUnsafe []mesh.Coord
	for _, c := range flipped {
		if g.Unsafe(c) {
			newlyUnsafe = append(newlyUnsafe, c)
		} else {
			markReplaced(prev.byCell[m.Index(c)] - 1)
		}
	}

	// Re-flood the affected region of the new grid. A flood from a newly
	// unsafe cell absorbs every old component it touches (their cells are
	// all still unsafe, so old connectivity keeps them reachable); a
	// component that lost cells may have split, so each of its surviving
	// cells seeds its own flood. pending grows while flooding, hence the
	// index loop.
	type floodComp struct {
		cells          []mesh.Coord
		x0, x1, y0, y1 int
		swX            int // min x within row y0: the discovery-order key cell
	}
	visited := make(map[int]bool)
	var comps []*floodComp
	var stack []mesh.Coord
	var nbuf [4]mesh.Coord
	absorb := func(i int) {
		visited[i] = true
		if id := prev.byCell[i]; id != 0 {
			markReplaced(id - 1)
		}
	}
	flood := func(seed mesh.Coord) {
		si := m.Index(seed)
		if !g.Unsafe(seed) || visited[si] {
			return
		}
		f := &floodComp{x0: seed.X, x1: seed.X, y0: seed.Y, y1: seed.Y, swX: seed.X}
		absorb(si)
		stack = append(stack[:0], seed)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			f.cells = append(f.cells, c)
			switch {
			case c.Y < f.y0:
				f.y0, f.swX = c.Y, c.X
			case c.Y == f.y0 && c.X < f.swX:
				f.swX = c.X
			case c.Y > f.y1:
				f.y1 = c.Y
			}
			if c.X < f.x0 {
				f.x0 = c.X
			}
			if c.X > f.x1 {
				f.x1 = c.X
			}
			for _, n := range m.Neighbors(c, nbuf[:0]) {
				ni := m.Index(n)
				if g.Unsafe(n) && !visited[ni] {
					absorb(ni)
					stack = append(stack, n)
				}
			}
		}
		comps = append(comps, f)
	}
	for _, c := range newlyUnsafe {
		flood(c)
	}
	for i := 0; i < len(pending); i++ {
		old := prev.all[pending[i]]
		for x := old.X0; x <= old.X1; x++ {
			for y := old.ColLo[x-old.X0]; y <= old.ColHi[x-old.X0]; y++ {
				flood(mesh.C(x, y))
			}
		}
	}

	// Merge surviving and re-flooded components in Extract's discovery
	// order: row-major position of each component's south-west-most cell.
	type entry struct {
		key int
		old *MCC       // surviving component (nil for re-flooded)
		nw  *floodComp // re-flooded component (nil for surviving)
	}
	order := make([]entry, 0, len(prev.all)-len(replaced)+len(comps))
	for _, f := range prev.all {
		if replaced[int32(f.ID)] {
			continue
		}
		order = append(order, entry{key: f.Y0*m.Width() + f.RowLo[0], old: f})
	}
	for _, f := range comps {
		order = append(order, entry{key: f.y0*m.Width() + f.swX, nw: f})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })

	s := &Set{grid: g, byCell: append([]int32(nil), prev.byCell...)}
	var restamp []*MCC // components whose byCell entries must be (re)written
	carried := make(map[*MCC]*MCC, len(order))
	for i, e := range order {
		var f *MCC
		switch {
		case e.old != nil && e.old.ID == i:
			f = e.old
			carried[e.old] = f
		case e.old != nil:
			cp := *e.old // shallow copy: profile slices shared, ID fresh
			cp.ID = i
			f = &cp
			carried[e.old] = f
			restamp = append(restamp, f)
		default:
			f = buildMCC(i, e.nw.cells, e.nw.x0, e.nw.x1, e.nw.y0, e.nw.y1)
			restamp = append(restamp, f)
		}
		s.all = append(s.all, f)
	}

	// Rewrite byCell: clear every replaced component's old footprint
	// first, then stamp re-flooded and ID-shifted components (clearing
	// first so a new component overlapping a replaced one is not wiped).
	for id := range replaced {
		old := prev.all[id]
		for x := old.X0; x <= old.X1; x++ {
			for y := old.ColLo[x-old.X0]; y <= old.ColHi[x-old.X0]; y++ {
				s.byCell[m.Index(mesh.C(x, y))] = 0
			}
		}
	}
	for _, f := range restamp {
		for x := f.X0; x <= f.X1; x++ {
			for y := f.ColLo[x-f.X0]; y <= f.ColHi[x-f.X0]; y++ {
				s.byCell[m.Index(mesh.C(x, y))] = int32(f.ID) + 1
			}
		}
	}

	s.index()
	return s, carried
}
