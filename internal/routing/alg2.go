package routing

import (
	"repro/internal/mesh"
)

// This file is the decision core of the paper's Algorithm 2 (Manhattan
// routing with boundary information), evaluated in the canonical frame of
// one leg's orientation.
//
// Step 1 deviation, documented: the paper admits a direction when the
// neighbor "is not fault"; we require the neighbor to be MCC-safe. A safe
// node always has a safe +X or +Y neighbor unless both directions are
// genuinely unusable (a consequence of the labeling rules: +X/+Y neighbors
// of a safe node are never can't-reach, and if both were faulty-or-useless
// the node itself would be useless), so the stricter test never empties a
// feasible candidate set — it only stops the adaptive walk from wandering
// into useless dead-end pockets that Algorithm 2 cannot escape, which the
// paper's prose assumes away. Each node knows its neighbors' labels from
// the labeling exchange, so the test is local.
//
// Step 2: a candidate is excluded when the hop would enter the forbidden
// region R(F) of a triple stored at the current node while the leg's
// destination lies in the matching critical region R'(F).

// candidates appends to dst the admissible forwarding directions at
// canonical position cu toward canonical leg destination ct, in (+X, +Y)
// order. An empty result at cu != ct means the leg is blocked (RB1
// detours, RB2/RB3 re-plan). Callers pass the walk's two-slot buffer so
// the per-hop decision allocates nothing.
//
//meshlint:hotpath
func (e env) candidates(cu, ct mesh.Coord, dst []mesh.Direction) []mesh.Direction {
	out := dst
	for _, dir := range [2]mesh.Direction{mesh.PlusX, mesh.PlusY} {
		switch dir {
		case mesh.PlusX:
			if cu.X >= ct.X {
				continue
			}
		case mesh.PlusY:
			if cu.Y >= ct.Y {
				continue
			}
		}
		target := cu.Step(dir)
		if !e.grid.Safe(target) {
			continue // step-1 test (see deviation note above)
		}
		if e.excluded(cu, target, ct) {
			continue
		}
		out = append(out, dir) //meshlint:allow appends at most two directions into the caller's fixed two-slot candBuf
	}
	return out
}

// excluded applies Algorithm 2 step 2 for every triple stored at cu.
//
//meshlint:hotpath
func (e env) excluded(cu, target, ct mesh.Coord) bool {
	for _, tr := range e.store.TriplesAt(cu) {
		if a := tr.Kind.Axis(); tr.F.InForbidden(a, target) && tr.F.InCritical(a, ct) {
			return true
		}
	}
	return false
}
