package labeling

import (
	"sort"

	"repro/internal/mesh"
)

// UpdateResult describes one incremental relabeling: the new grid plus
// the exact set of cells whose labels moved, so downstream consumers
// (MCC extraction, wall bitsets) can scope their own rebuilds to the
// same delta.
type UpdateResult struct {
	// Grid is the relabeled grid. When the delta turns out not to change
	// any label, Grid is the previous grid itself (structural sharing).
	Grid *Grid
	// Examined counts the cells the incremental fixpoint re-evaluated —
	// the work actually done, reported by the engine's rebuild_cells
	// gauge. A full Compute examines every node at least once.
	Examined int
	// Changed lists the cells (row-major order) whose flag set differs
	// from the previous grid, including the delta cells themselves.
	Changed []mesh.Coord
	// UnsafeFlipped lists the cells (row-major order) whose Unsafe
	// status flipped — the subset of Changed that alters the safe/unsafe
	// partition MCC extraction and the routing wall masks depend on. A
	// cell that merely trades useless for can't-reach is Changed but not
	// UnsafeFlipped.
	UnsafeFlipped []mesh.Coord
}

// Update relabels incrementally: given the converged grid of the previous
// fault configuration and the exact delta that produced the new one
// (adds became faulty, repairs became healthy; coordinates are in the
// grid's own frame and must be in-mesh and disjoint), it returns the
// grid Compute would produce for the new configuration, touching only
// the delta's region of influence.
//
// The two label kinds are monotone closures, so fault additions only add
// fuel and are handled by the ordinary worklist. Repairs remove fuel, so
// Update first over-deletes: every useless/can't-reach label whose
// derivation chain could pass through a repaired cell is cleared
// (delete–rederive), then the same worklist the full Compute runs
// re-derives every label still justified. Each label has a unique
// derivation (the rules are conjunctions over fixed neighbors), so the
// deletion cascade is exact and the rederivation restores precisely the
// least fixpoint; TestUpdateMatchesCompute checks equality against
// Compute on random fault sequences.
func Update(prev *Grid, adds, repairs []mesh.Coord) UpdateResult {
	m := prev.m
	if len(adds) == 0 && len(repairs) == 0 {
		return UpdateResult{Grid: prev}
	}
	g := &Grid{
		m:      m,
		label:  append([]flags(nil), prev.label...),
		unsafe: prev.unsafe,
	}
	res := UpdateResult{Grid: g}

	// set rewrites the full flag set of one cell, maintaining the unsafe
	// count across 0<->nonzero transitions.
	set := func(idx int, fl flags) {
		old := g.label[idx]
		if old == fl {
			return
		}
		if old == 0 {
			g.unsafe++
		} else if fl == 0 {
			g.unsafe--
		}
		g.label[idx] = fl
	}

	// Apply the delta. Faulty cells carry exactly fFaulty (Compute never
	// layers useless/can't-reach onto them); repaired cells restart from
	// zero and are rederived below.
	for _, c := range adds {
		set(m.Index(c), fFaulty)
	}
	for _, c := range repairs {
		set(m.Index(c), 0)
	}

	// Over-delete (delete–rederive): a repair removes fuel from both
	// closures, so every label that was derived through the repaired cell
	// is suspect. The cascade clears each closure's labels along its own
	// reader direction — a cell's useless label reads its +X/+Y
	// neighbors, so fuel loss at c propagates to readers c-X, c-Y;
	// can't-reach mirrors that. Fault additions never remove fuel
	// (fFaulty feeds both rules at least as much as any label did), so
	// only repairs seed the cascade.
	var deleted []int
	cascade := func(seeds []mesh.Coord, bit flags, d1, d2 mesh.Direction) {
		work := make([]mesh.Coord, 0, len(seeds)*2)
		for _, s := range seeds {
			work = append(work, s)
		}
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range [2]mesh.Direction{d1, d2} {
				r := s.Step(d)
				if !m.In(r) {
					continue
				}
				ri := m.Index(r)
				if g.label[ri]&bit == 0 {
					continue
				}
				set(ri, g.label[ri]&^bit)
				deleted = append(deleted, ri)
				work = append(work, r)
			}
		}
	}
	cascade(repairs, fUseless, mesh.MinusX, mesh.MinusY)
	cascade(repairs, fCantReach, mesh.PlusX, mesh.PlusY)

	// Re-derive with exactly Compute's worklist loop, seeded from the
	// cells whose neighborhood fuel could have increased: the delta cells
	// and their neighbors (adds supply new fuel to their readers,
	// repaired cells themselves become labelable), plus every
	// over-deleted cell (each may still be justified by surviving fuel).
	work := make([]int, 0, 4*(len(adds)+len(repairs))+len(deleted))
	inWork := make([]bool, m.Nodes())
	push := func(idx int) {
		if !inWork[idx] && g.label[idx]&fFaulty == 0 {
			inWork[idx] = true
			work = append(work, idx)
		}
	}
	var nbuf [4]mesh.Coord
	seedAround := func(c mesh.Coord) {
		push(m.Index(c))
		for _, n := range m.Neighbors(c, nbuf[:0]) {
			push(m.Index(n))
		}
	}
	for _, c := range adds {
		seedAround(c)
	}
	for _, c := range repairs {
		seedAround(c)
	}
	for _, idx := range deleted {
		push(idx)
	}

	var gained []int
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[idx] = false
		fl := g.label[idx]
		if fl&fFaulty != 0 {
			continue
		}
		res.Examined++
		c := m.CoordOf(idx)
		add := flags(0)
		if fl&fUseless == 0 && uselessRule(m, g.label, c) {
			add |= fUseless
		}
		if fl&fCantReach == 0 && cantReachRule(m, g.label, c) {
			add |= fCantReach
		}
		if add == 0 {
			continue
		}
		set(idx, fl|add)
		gained = append(gained, idx)
		for _, n := range m.Neighbors(c, nbuf[:0]) {
			push(m.Index(n))
		}
	}

	// Diff against prev over the delta's region of influence. Every cell
	// whose label moved passed through set(): the delta cells, the
	// over-deleted cells, and the cells that gained a label during
	// rederivation. Comparing that candidate set against prev filters the
	// round-trips (deleted then rederived back, repaired then relabeled
	// identically) out of the reported delta.
	seen := make(map[int]struct{}, len(adds)+len(repairs)+len(deleted)+len(gained))
	collect := func(idx int) {
		if _, ok := seen[idx]; ok {
			return
		}
		seen[idx] = struct{}{}
	}
	for _, c := range adds {
		collect(m.Index(c))
	}
	for _, c := range repairs {
		collect(m.Index(c))
	}
	for _, idx := range deleted {
		collect(idx)
	}
	for _, idx := range gained {
		collect(idx)
	}
	changedIdx := make([]int, 0, len(seen))
	for idx := range seen {
		if g.label[idx] != prev.label[idx] {
			changedIdx = append(changedIdx, idx)
		}
	}
	sort.Ints(changedIdx)
	for _, idx := range changedIdx {
		c := m.CoordOf(idx)
		res.Changed = append(res.Changed, c)
		if g.label[idx].unsafe() != prev.label[idx].unsafe() {
			res.UnsafeFlipped = append(res.UnsafeFlipped, c)
		}
	}
	if len(res.Changed) == 0 {
		// Nothing moved: hand back the previous grid so callers can share
		// every downstream structure.
		res.Grid = prev
	}
	return res
}
