package routing

import "repro/internal/mesh"

// Policy selects among the admissible forwarding directions of Algorithm 2
// step 3 ("apply any fully adaptive routing process"). The paper leaves the
// selector unspecified; the default balances the remaining offsets, which
// keeps the walk near the rectangle diagonal and maximizes later
// adaptivity. The ablation bench shows the choice is NOT harmless: the
// extreme selectors (x-first/y-first) ride the travel rectangle's edges,
// where boundary information is sparse and blocked situations bunch up,
// and RB2's shortest-path success drops by tens of points at high density
// — evidence that the paper's "any fully adaptive routing" understates the
// coupling between the selector and the information model.
type Policy uint8

// Available selection policies.
const (
	// PolicyDiagonal advances along the dimension with the larger remaining
	// offset (ties prefer +X).
	PolicyDiagonal Policy = iota
	// PolicyXFirst always prefers +X when admissible.
	PolicyXFirst
	// PolicyYFirst always prefers +Y when admissible.
	PolicyYFirst
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDiagonal:
		return "diagonal"
	case PolicyXFirst:
		return "x-first"
	case PolicyYFirst:
		return "y-first"
	}
	return "policy?"
}

// choose picks one direction from the admissible set (never empty) for a
// leg at canonical position cu toward canonical target ct.
func (p Policy) choose(cands []mesh.Direction, cu, ct mesh.Coord) mesh.Direction {
	if len(cands) == 1 {
		return cands[0]
	}
	switch p {
	case PolicyXFirst:
		return cands[0] // candidate order is +X, +Y
	case PolicyYFirst:
		return cands[len(cands)-1]
	default: // PolicyDiagonal
		if ct.Y-cu.Y > ct.X-cu.X {
			return cands[len(cands)-1] // +Y
		}
		return cands[0]
	}
}
