package info

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

func build(t *testing.T, model Model, m mesh.Mesh, faults ...mesh.Coord) (*Store, *mcc.Set) {
	t.Helper()
	g := labeling.Compute(fault.FromCoords(m, faults...))
	set := mcc.Extract(g)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return Build(model, set), set
}

// contour paths must be hop-connected, avoid the component, and join the
// two corners — otherwise the "messages" teleport.
func TestContoursAreWalkable(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		m := mesh.Square(20)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 5+r.Intn(40), r))
		set := mcc.Extract(g)
		for _, f := range set.All() {
			for _, a := range mcc.Axes {
				pts := contour(f, a)
				if pts[0] != f.Corner() || pts[len(pts)-1] != f.Opposite() {
					t.Fatalf("trial %d %v contour of %v: ends %v..%v, want %v..%v",
						trial, a, f, pts[0], pts[len(pts)-1], f.Corner(), f.Opposite())
				}
				for i, c := range pts {
					if f.Contains(c) {
						t.Fatalf("trial %d %v contour of %v passes through the component at %v", trial, a, f, c)
					}
					if i > 0 {
						if _, adj := pts[i-1].DirTo(c); !adj {
							t.Fatalf("trial %d %v contour of %v teleports %v -> %v", trial, a, f, pts[i-1], c)
						}
					}
				}
			}
		}
	}
}

// holds counts the triples of f along a stored at c.
func holds(s *Store, c mesh.Coord, f *mcc.MCC, a mcc.Axis) int {
	n := 0
	for _, tr := range s.TriplesAt(c) {
		if tr.F == f && tr.Axis == a {
			n++
		}
	}
	return n
}

func TestB1SingleMCCBoundaryDeposits(t *testing.T) {
	// Single fault at (5,6) on a 12x12 mesh: c = (4,5), c' = (6,7). The
	// -X boundary carries (F, R_Y, R'_Y) along x=4 from y=5 down to 0, the
	// -Y boundary carries (F, R_X, R'_X) along y=5 from x=4 down to 0, and
	// B1 has no +X/+Y boundaries: no other node holds anything, neither
	// the +X line x=6 nor the +Y line y=7 below and west of c'.
	s, set := build(t, B1, mesh.Square(12), mesh.C(5, 6))
	f := set.All()[0]
	s.m.EachNode(func(c mesh.Coord) {
		var want []Triple
		if c.X == 4 && c.Y <= 5 {
			want = append(want, Triple{F: f, Axis: mcc.AxisY})
		}
		if c.Y == 5 && c.X <= 4 {
			want = append(want, Triple{F: f, Axis: mcc.AxisX})
		}
		if got := s.TriplesAt(c); !slices.Equal(got, want) {
			t.Errorf("B1 triples at %v: %v, want %v", c, got, want)
		}
	})
}

func TestB2FloodFillsForbiddenRegion(t *testing.T) {
	s, set := build(t, B2, mesh.Square(12), mesh.C(5, 6))
	f := set.All()[0]
	// Every node in the extended Y region [4..6] below the component must
	// hold F's R_Y triple exactly once, though both the -X line x=4 and the
	// +X line x=6 bound the region and the flood reaches every node of it.
	for x := 4; x <= 6; x++ {
		for y := 0; y <= 5; y++ {
			if n := holds(s, mesh.C(x, y), f, mcc.AxisY); n != 1 {
				t.Errorf("(%d,%d) holds %d R_Y triples of F, want 1", x, y, n)
			}
		}
	}
	// And the X region west of the component likewise.
	for _, c := range []mesh.Coord{mesh.C(0, 6), mesh.C(3, 6), mesh.C(4, 7)} {
		if n := holds(s, c, f, mcc.AxisX); n != 1 {
			t.Errorf("%v holds %d R_X triples of F under B2, want 1", c, n)
		}
	}
	// Nodes outside all regions stay empty: north-east of the component.
	if s.HasInfo(mesh.C(9, 10)) {
		t.Error("node outside regions has info under B2")
	}
}

func TestBoundaryJoinsStackedComponents(t *testing.T) {
	// F(upper) at (5,8); F(lower) spanning (4,4)-(5,4) directly under the
	// -X boundary line x=4 of the upper component. The upper -X boundary
	// heading south hits the lower component and must join its boundary:
	// west along its top, down its west side at x=3, continuing south.
	s, set := build(t, B1, mesh.Square(12), mesh.C(5, 8), mesh.C(4, 4), mesh.C(5, 4))
	var upper *mcc.MCC
	for _, f := range set.All() {
		if f.Contains(mesh.C(5, 8)) {
			upper = f
		}
	}
	// Under B1 only the upper component's -X boundary carries its R_Y
	// triple.
	holdsUpper := func(c mesh.Coord) bool { return holds(s, c, upper, mcc.AxisY) > 0 }
	// Line from (4,7) down to (4,5) holds the triple.
	for y := 5; y <= 7; y++ {
		if !holdsUpper(mesh.C(4, y)) {
			t.Errorf("missing upper triple at (4,%d)", y)
		}
	}
	// Joined boundary: corner of lower component (3,3) and the line below.
	for y := 0; y <= 3; y++ {
		if !holdsUpper(mesh.C(3, y)) {
			t.Errorf("missing joined triple at (3,%d)", y)
		}
	}
	// The original column below the lower component must NOT carry it
	// (the line turned west).
	if holdsUpper(mesh.C(4, 0)) {
		t.Error("boundary failed to turn at the intersected component")
	}
}

func TestB3RecordsRelations(t *testing.T) {
	// Interlocked type-I pair: F(v) = (5,5), F(c) = (6,8). F(c)'s corner is
	// (5,7); its -X boundary runs south along x=5 and hits F(v) at (5,5),
	// where the chain-predecessor test fires and records F(v) -> F(c).
	s, set := build(t, B3, mesh.Square(12), mesh.C(5, 5), mesh.C(6, 8))
	var fv, fc *mcc.MCC
	for _, f := range set.All() {
		if f.Contains(mesh.C(5, 5)) {
			fv = f
		}
		if f.Contains(mesh.C(6, 8)) {
			fc = f
		}
	}
	if fv == nil || fc == nil {
		t.Fatal("components not found")
	}
	succs := s.Successors(mcc.AxisY, fv)
	found := false
	for _, g := range succs {
		if g == fc {
			found = true
		}
	}
	if !found {
		t.Errorf("relation F(v)->F(c) not recorded; successors of %v: %v", fv, succs)
	}
	// The non-chain pair (free column between spans) records nothing.
	s2, set2 := build(t, B3, mesh.Square(12), mesh.C(3, 5), mesh.C(4, 5), mesh.C(6, 6))
	for _, f := range set2.All() {
		if len(s2.Successors(mcc.AxisY, f)) != 0 {
			t.Errorf("free-gap pair recorded a type-I relation from %v", f)
		}
	}
}

func TestB3SplitDepositsPlusXSide(t *testing.T) {
	// Same stacked configuration as the join test: under B3 the -X boundary
	// of the upper component splits at the lower one; the second branch
	// joins the lower's +X boundary at its opposite corner (6,5) and runs
	// south along x=6.
	s, set := build(t, B3, mesh.Square(12), mesh.C(5, 8), mesh.C(4, 4), mesh.C(5, 4))
	var upper *mcc.MCC
	for _, f := range set.All() {
		if f.Contains(mesh.C(5, 8)) {
			upper = f
		}
	}
	// B3 has no +X boundary of its own, so the upper component's R_Y
	// triple reaches x=6 only by the split branch.
	for y := 0; y <= 5; y++ {
		if holds(s, mesh.C(6, y), upper, mcc.AxisY) == 0 {
			t.Errorf("missing split +X triple at (6,%d)", y)
		}
	}
}

func TestParticipantsOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		m := mesh.Square(30)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 20+r.Intn(80), r))
		set := mcc.Extract(g)
		b1 := Build(B1, set)
		b2 := Build(B2, set)
		b3 := Build(B3, set)
		if b2.Participants() < b1.Participants() {
			t.Errorf("trial %d: B2 participants %d < B1 %d", trial, b2.Participants(), b1.Participants())
		}
		if b3.Participants() < b1.Participants() {
			t.Errorf("trial %d: B3 participants %d < B1 %d", trial, b3.Participants(), b1.Participants())
		}
		for _, s := range []*Store{b1, b2, b3} {
			if s.Participants() > m.Nodes() {
				t.Fatalf("participants exceed mesh size")
			}
			if s.Messages() < int64(s.Participants())-int64(set.Len()*4) {
				// Every participant beyond the walk origins required at
				// least one link crossing.
				t.Errorf("trial %d %v: messages %d implausibly low for %d participants",
					trial, s.Model(), s.Messages(), s.Participants())
			}
		}
	}
}

func TestDepositsOnlyOnSafeNodes(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	m := mesh.Square(25)
	g := labeling.Compute(fault.Uniform{}.Generate(m, 90, r))
	set := mcc.Extract(g)
	for _, model := range []Model{B1, B2, B3} {
		s := Build(model, set)
		m.EachNode(func(c mesh.Coord) {
			if len(s.TriplesAt(c)) > 0 && !g.Safe(c) {
				t.Fatalf("%v deposited info on unsafe node %v", model, c)
			}
		})
	}
}

// checkOneTriplePerAxis fails t when a node of s holds two triples with
// the same component and axis.
func checkOneTriplePerAxis(t *testing.T, name string, s *Store) {
	t.Helper()
	s.m.EachNode(func(c mesh.Coord) {
		ts := s.TriplesAt(c)
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				if ts[i].F == ts[j].F && ts[i].Axis == ts[j].Axis {
					t.Fatalf("%s: node %v holds %v's triple along %v twice", name, c, ts[i].F, ts[i].Axis)
				}
			}
		}
	})
}

func TestTriplesDeduplicated(t *testing.T) {
	s, _ := build(t, B2, mesh.Square(12), mesh.C(5, 6))
	checkOneTriplePerAxis(t, "B2", s)
}

func TestModelStrings(t *testing.T) {
	if B1.String() != "B1" || B2.String() != "B2" || B3.String() != "B3" {
		t.Error("model names changed")
	}
	if Model(9).String() != "Model(9)" {
		t.Error("unknown model string")
	}
}

func TestBorderTouchingComponentSkipsLines(t *testing.T) {
	// Component at the south-west corner of the mesh: its initialization
	// corner is outside, so the -X and -Y boundaries cannot start; the +X
	// and +Y boundaries from the in-mesh opposite corner (1,1) still can.
	// Must not panic and must not run minus-side walks. B3 runs only minus
	// walks (its plus-side deposits come from their splits), so its store
	// must be empty.
	s3, _ := build(t, B3, mesh.Square(8), mesh.C(0, 0))
	s3.m.EachNode(func(c mesh.Coord) {
		if ts := s3.TriplesAt(c); ts != nil {
			t.Errorf("triples %v deposited at %v for a corner-clipped component", ts, c)
		}
	})
	s, set := build(t, B2, mesh.Square(8), mesh.C(0, 0))
	f := set.All()[0]
	// The +X boundary runs down x=1 from the opposite corner carrying the
	// R_Y triple, the +Y boundary west along y=1 carrying the R_X one.
	for _, c := range []mesh.Coord{mesh.C(1, 1), mesh.C(1, 0)} {
		if holds(s, c, f, mcc.AxisY) != 1 {
			t.Errorf("+X boundary missing at %v for corner component", c)
		}
	}
	for _, c := range []mesh.Coord{mesh.C(1, 1), mesh.C(0, 1)} {
		if holds(s, c, f, mcc.AxisX) != 1 {
			t.Errorf("+Y boundary missing at %v for corner component", c)
		}
	}
	if s.TriplesAt(mesh.C(-1, 0)) != nil {
		t.Error("TriplesAt outside mesh must be nil")
	}
}
