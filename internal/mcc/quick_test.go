package mcc

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

// Property (testing/quick): for any fault vector, every extracted MCC is a
// north-east-ascending staircase polyomino — contiguous column intervals
// with non-decreasing Lo/Hi profiles (and transposed row profiles) — and
// the initialization corner is always south-west of the opposite corner.
func TestQuickStaircaseInvariant(t *testing.T) {
	f := func(cells []uint16) bool {
		m := mesh.Square(18)
		fs := fault.NewSet(m)
		for _, v := range cells {
			fs.Add(m.CoordOf(int(v) % m.Nodes()))
		}
		set := Extract(labeling.Compute(fs))
		if set.Validate() != nil {
			return false
		}
		for _, c := range set.All() {
			corner, opp := c.Corner(), c.Opposite()
			if corner.X >= opp.X || corner.Y >= opp.Y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the blocking predicate is monotone in the destination — if a
// component blocks (u, d), it blocks (u, d') for any d' in the critical
// region dominated-reachable... not true in general; instead pin the
// simpler symmetry: blocking never holds when the pair's rectangle misses
// the component's bounding box.
func TestQuickBlockingRequiresOverlap(t *testing.T) {
	f := func(cells []uint16, ux, uy, w, h uint8) bool {
		m := mesh.Square(18)
		fs := fault.NewSet(m)
		for _, v := range cells {
			fs.Add(m.CoordOf(int(v) % m.Nodes()))
		}
		set := Extract(labeling.Compute(fs))
		u := mesh.C(int(ux)%18, int(uy)%18)
		d := mesh.C(min(u.X+int(w)%18, 17), min(u.Y+int(h)%18, 17))
		rect := mesh.RectOf(u, d)
		for _, c := range set.All() {
			if c.Contains(u) || c.Contains(d) {
				continue
			}
			overlap := rect.Intersect(c.Bounds()).Valid()
			if !overlap && c.BlocksDirect(u, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
