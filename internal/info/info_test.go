package info

import (
	"math/rand"
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

func TestB1SingleMCCBoundaryDeposits(t *testing.T) {
	// Single fault at (5,6) on a 12x12 mesh: c = (4,5), c' = (6,7).
	s, set := build(t, B1, mesh.Square(12), mesh.C(5, 6))
	f := set.All()[0]
	// -X boundary: x=4, y from 5 down to 0.
	for y := 0; y <= 5; y++ {
		ts := s.TriplesAt(mesh.C(4, y))
		found := false
		for _, tr := range ts {
			if tr.F == f && tr.Kind == RYMinusX {
				found = true
			}
		}
		if !found {
			t.Errorf("missing RY/-X triple at (4,%d)", y)
		}
	}
	// -Y boundary: y=5, x from 4 down to 0.
	for x := 0; x <= 4; x++ {
		ts := s.TriplesAt(mesh.C(x, 5))
		found := false
		for _, tr := range ts {
			if tr.F == f && tr.Kind == RXMinusY {
				found = true
			}
		}
		if !found {
			t.Errorf("missing RX/-Y triple at (%d,5)", x)
		}
	}
	// No +X/+Y boundaries under B1.
	for _, tr := range s.TriplesAt(mesh.C(6, 6)) {
		if tr.Kind == RYPlusX || tr.Kind == RXPlusY {
			t.Errorf("B1 deposited %v at (6,6)", tr.Kind)
		}
	}
	// Nodes far from any boundary hold nothing.
	if s.HasInfo(mesh.C(10, 2)) {
		t.Error("distant node has info under B1")
	}
}

func TestB2FloodFillsForbiddenRegion(t *testing.T) {
	s, set := build(t, B2, mesh.Square(12), mesh.C(5, 6))
	f := set.All()[0]
	// Every node in the extended Y region [4..6] below the component must
	// know both RY triples.
	for x := 4; x <= 6; x++ {
		for y := 0; y <= 5; y++ {
			if x == 6 && y > 6 {
				continue
			}
			ts := s.TriplesAt(mesh.C(x, y))
			var hasMinus, hasPlus bool
			for _, tr := range ts {
				if tr.F == f && tr.Kind == RYMinusX {
					hasMinus = true
				}
				if tr.F == f && tr.Kind == RYPlusX {
					hasPlus = true
				}
			}
			if !hasMinus || !hasPlus {
				t.Errorf("flood gap at (%d,%d): minus=%v plus=%v", x, y, hasMinus, hasPlus)
			}
		}
	}
	// And the X region west of the component likewise.
	for _, c := range []mesh.Coord{mesh.C(0, 6), mesh.C(3, 6), mesh.C(4, 7)} {
		var hasX bool
		for _, tr := range s.TriplesAt(c) {
			if tr.F == f && (tr.Kind == RXMinusY || tr.Kind == RXPlusY) {
				hasX = true
			}
		}
		if !hasX {
			t.Errorf("no RX info at %v under B2", c)
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
	holdsUpper := func(c mesh.Coord) bool {
		for _, tr := range s.TriplesAt(c) {
			if tr.F == upper && tr.Kind == RYMinusX {
				return true
			}
		}
		return false
	}
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
	holdsPlus := func(c mesh.Coord) bool {
		for _, tr := range s.TriplesAt(c) {
			if tr.F == upper && tr.Kind == RYPlusX {
				return true
			}
		}
		return false
	}
	for y := 0; y <= 5; y++ {
		if !holdsPlus(mesh.C(6, y)) {
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

func TestTriplesDeduplicated(t *testing.T) {
	s, _ := build(t, B2, mesh.Square(12), mesh.C(5, 6))
	s.m.EachNode(func(c mesh.Coord) {
		ts := s.TriplesAt(c)
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				if ts[i] == ts[j] {
					t.Fatalf("duplicate triple %v at %v", ts[i], c)
				}
			}
		}
	})
}

func TestModelAndKindStrings(t *testing.T) {
	if B1.String() != "B1" || B2.String() != "B2" || B3.String() != "B3" {
		t.Error("model names changed")
	}
	if Model(9).String() != "Model(9)" {
		t.Error("unknown model string")
	}
	kinds := map[Kind]string{RYMinusX: "RY/-X", RYPlusX: "RY/+X", RXMinusY: "RX/-Y", RXPlusY: "RX/+Y"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	// Kind.Axis shifts rather than branches, so the declaration order is
	// pinned: RY/-X, RY/+X, RX/-Y, RX/+Y.
	axes := map[Kind]mcc.Axis{RYMinusX: mcc.AxisY, RYPlusX: mcc.AxisY, RXMinusY: mcc.AxisX, RXPlusY: mcc.AxisX}
	for k, want := range axes {
		if k.Axis() != want {
			t.Errorf("kind %v axis = %v, want %v", k, k.Axis(), want)
		}
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string")
	}
}

func TestBorderTouchingComponentSkipsLines(t *testing.T) {
	// Component at the south-west corner of the mesh: its initialization
	// corner is outside, so the -X and -Y boundaries cannot start; the +X
	// and +Y boundaries from the in-mesh opposite corner (1,1) still can.
	// Must not panic and must not run minus-side walks. Checked under B3
	// (B2's flood legitimately copies the full identified information —
	// both kinds — onto every informed node, so only a flood-free model can
	// observe which walks ran).
	s3, _ := build(t, B3, mesh.Square(8), mesh.C(0, 0))
	s3.m.EachNode(func(c mesh.Coord) {
		for _, tr := range s3.TriplesAt(c) {
			if tr.Kind == RYMinusX || tr.Kind == RXMinusY {
				t.Errorf("minus-side triple %v deposited at %v for a corner-clipped component", tr.Kind, c)
			}
		}
	})
	s, _ := build(t, B2, mesh.Square(8), mesh.C(0, 0))
	// The +X boundary line below the opposite corner carries info.
	if !s.HasInfo(mesh.C(1, 0)) || !s.HasInfo(mesh.C(0, 1)) {
		t.Error("plus-side boundaries missing for corner component")
	}
	if s.TriplesAt(mesh.C(-1, 0)) != nil {
		t.Error("TriplesAt outside mesh must be nil")
	}
}
