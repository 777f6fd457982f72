package mcc

import (
	"slices"

	"repro/internal/labeling"
	"repro/internal/mesh"
)

// UpdateSet returns the MCC set of g after a relabeling, with the
// provenance info.Rebuild keys its contribution replay on. prev must be
// the set extracted from the previous grid and flipped the exact cells
// whose Unsafe status differs between the two
// (labeling.UpdateResult.UnsafeFlipped). bench/replay.go calls it, which
// fixes its signature.
//
// When nothing flipped, every component is prev's: UpdateSet returns
// prev itself, or, when g is a new grid (its unsafe nodes changed only
// which unsafe label they hold), a copy of prev's header that carries g.
// Otherwise it returns Extract(g). Either way the second result maps
// every previous component whose exact cells form a component of the new
// set to that component; every other previous component is absent. prev
// is never mutated, so concurrent readers of the previous snapshot are
// unaffected.
func UpdateSet(prev *Set, g *labeling.Grid, flipped []mesh.Coord) (*Set, map[*MCC]*MCC) {
	if len(flipped) == 0 {
		carried := make(map[*MCC]*MCC, len(prev.all))
		for _, f := range prev.all {
			carried[f] = f
		}
		if prev.grid == g {
			return prev, carried
		}
		s := *prev
		s.grid = g
		return &s, carried
	}
	s := Extract(g)
	carried := make(map[*MCC]*MCC, s.Len())
	for _, f := range s.all {
		// An MCC is one row interval per column, so the old component at
		// f's south-west cell has exactly f's cells iff their column
		// profiles are equal.
		old := prev.At(mesh.C(f.X0, f.ColLo[0]))
		if old != nil && old.X0 == f.X0 && slices.Equal(old.ColLo, f.ColLo) && slices.Equal(old.ColHi, f.ColHi) {
			carried[old] = f
		}
	}
	return s, carried
}
