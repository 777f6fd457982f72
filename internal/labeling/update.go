package labeling

import (
	"repro/internal/mesh"
)

// UpdateResult describes one relabeling after a fault delta.
type UpdateResult struct {
	// Grid is the relabeled grid. For an empty delta it is the previous
	// grid itself; any other delta moves at least its own cells' labels.
	Grid *Grid
	// Examined counts the rule evaluations of the fixpoint: every
	// healthy neighbour of a faulty node at least once, plus the
	// re-evaluations that newly labeled nodes queue.
	Examined int
	// UnsafeFlipped lists the cells (row-major order) whose Unsafe
	// status flipped — the changes to the safe/unsafe partition MCC
	// extraction and the routing wall masks depend on. A cell that
	// trades one unsafe label for another is not listed.
	UnsafeFlipped []mesh.Coord
}

// Update relabels after a fault delta: given the converged grid of the
// previous fault configuration and the exact delta that produced the new
// one (adds became faulty, repairs became healthy; coordinates are in the
// grid's own frame and must be in-mesh and disjoint), it returns the grid
// Compute would produce for the new configuration. It runs Compute's
// fixpoint from prev's faulty nodes plus the delta, reading prev's
// unsafe nodes but no other node of prev, and it finds UnsafeFlipped by
// merging the two grids' unsafe lists. bench/replay.go calls it, which
// fixes its signature.
func Update(prev *Grid, adds, repairs []mesh.Coord) UpdateResult {
	if len(adds) == 0 && len(repairs) == 0 {
		return UpdateResult{Grid: prev}
	}
	m := prev.m
	label := make([]flags, len(prev.label))
	for _, idx := range prev.unsafe {
		label[idx] = prev.label[idx] & fFaulty
	}
	for _, c := range repairs {
		label[m.Index(c)] = 0
	}
	faulty := make([]int, 0, len(prev.unsafe)+len(adds))
	for _, idx := range prev.unsafe {
		if label[idx] != 0 {
			faulty = append(faulty, idx)
		}
	}
	for _, c := range adds {
		idx := m.Index(c)
		label[idx] = fFaulty
		faulty = append(faulty, idx)
	}
	g, examined := fixpoint(m, label, faulty)
	res := UpdateResult{Grid: g, Examined: examined}

	// Both unsafe lists ascend, so one merge yields the flipped cells in
	// row-major order.
	was, is := prev.unsafe, g.unsafe
	for len(was) > 0 || len(is) > 0 {
		switch {
		case len(is) == 0 || len(was) > 0 && was[0] < is[0]:
			res.UnsafeFlipped = append(res.UnsafeFlipped, m.CoordOf(was[0]))
			was = was[1:]
		case len(was) == 0 || is[0] < was[0]:
			res.UnsafeFlipped = append(res.UnsafeFlipped, m.CoordOf(is[0]))
			is = is[1:]
		default:
			was, is = was[1:], is[1:]
		}
	}
	return res
}
