package labeling

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

func grid(t *testing.T, m mesh.Mesh, faults ...mesh.Coord) *Grid {
	t.Helper()
	g := Compute(fault.FromCoords(m, faults...))
	checkUnsafeNodes(t, g)
	return g
}

// checkUnsafeNodes asserts that g.UnsafeNodes() lists exactly the unsafe
// nodes in ascending order and that UnsafeCount is its length.
func checkUnsafeNodes(t *testing.T, g *Grid) {
	t.Helper()
	list := g.UnsafeNodes()
	if g.UnsafeCount() != len(list) {
		t.Fatalf("UnsafeCount = %d, UnsafeNodes has %d", g.UnsafeCount(), len(list))
	}
	next := 0
	for idx := 0; idx < g.m.Nodes(); idx++ {
		if !g.Unsafe(g.m.CoordOf(idx)) {
			continue
		}
		if next >= len(list) || list[next] != idx {
			t.Fatalf("UnsafeNodes = %v, want unsafe node %d at position %d", list, idx, next)
		}
		next++
	}
	if next != len(list) {
		t.Fatalf("UnsafeNodes = %v lists %d nodes beyond the unsafe ones", list, len(list)-next)
	}
}

func TestNoFaultsAllSafe(t *testing.T) {
	g := grid(t, mesh.Square(8))
	if g.UnsafeCount() != 0 {
		t.Fatalf("fault-free mesh has %d unsafe nodes", g.UnsafeCount())
	}
	safe, faulty, useless, cr := g.Counts()
	if safe != 64 || faulty+useless+cr != 0 {
		t.Fatalf("Counts = %d,%d,%d,%d", safe, faulty, useless, cr)
	}
}

func TestSingleFaultNoLabels(t *testing.T) {
	g := grid(t, mesh.Square(8), mesh.C(4, 4))
	if g.UnsafeCount() != 1 {
		t.Fatalf("single fault produced %d unsafe nodes, want 1", g.UnsafeCount())
	}
	if g.Status(mesh.C(4, 4)) != Faulty {
		t.Error("fault not labeled faulty")
	}
}

// The paper's defining example: faults on an anti-diagonal force the
// staircase gaps useless (SW side) and can't-reach (NE side).
func TestAntiDiagonalFills(t *testing.T) {
	// Faults at (4,6),(5,5),(6,4): an anti-diagonal line.
	g := grid(t, mesh.Square(12), mesh.C(4, 6), mesh.C(5, 5), mesh.C(6, 4))
	wantUseless := []mesh.Coord{mesh.C(4, 5), mesh.C(5, 4), mesh.C(4, 4)}
	for _, c := range wantUseless {
		if g.Status(c) != Useless {
			t.Errorf("%v = %v, want useless", c, g.Status(c))
		}
	}
	wantCR := []mesh.Coord{mesh.C(5, 6), mesh.C(6, 5), mesh.C(6, 6)}
	for _, c := range wantCR {
		if g.Status(c) != CantReach {
			t.Errorf("%v = %v, want can't-reach", c, g.Status(c))
		}
	}
	// The filled region is exactly the 3x3 square.
	if g.UnsafeCount() != 9 {
		t.Errorf("UnsafeCount = %d, want 9", g.UnsafeCount())
	}
}

func TestDiagonalDoesNotFill(t *testing.T) {
	// Faults on a main diagonal stay three separate single-node regions:
	// the MCC model's key advantage over rectangular blocks.
	g := grid(t, mesh.Square(12), mesh.C(4, 4), mesh.C(5, 5), mesh.C(6, 6))
	if g.UnsafeCount() != 3 {
		t.Errorf("UnsafeCount = %d, want 3 (no fill)", g.UnsafeCount())
	}
}

func TestLShapedFill(t *testing.T) {
	// Faults (5,4),(5,5),(4,6) plus closure = 2x3 full rectangle (derived by
	// hand from the useless and can't-reach rules).
	g := grid(t, mesh.Square(12), mesh.C(5, 4), mesh.C(5, 5), mesh.C(4, 6))
	want := map[mesh.Coord]Status{
		mesh.C(4, 4): Useless, mesh.C(4, 5): Useless,
		mesh.C(5, 6): CantReach,
	}
	for c, st := range want {
		if g.Status(c) != st {
			t.Errorf("%v = %v, want %v", c, g.Status(c), st)
		}
	}
	if g.UnsafeCount() != 6 {
		t.Errorf("UnsafeCount = %d, want 6", g.UnsafeCount())
	}
}

func TestBorderSafeKeepsCornersRoutable(t *testing.T) {
	g := grid(t, mesh.Square(8))
	for _, c := range []mesh.Coord{mesh.C(7, 7), mesh.C(0, 0), mesh.C(0, 7), mesh.C(7, 0)} {
		if g.Status(c) != Safe {
			t.Errorf("corner %v = %v, want safe", c, g.Status(c))
		}
	}
}

// A node whose four neighbors are faulty satisfies both rules: it holds
// both labels and displays as useless per Status precedence.
func TestDualLabelDisplaysUseless(t *testing.T) {
	c := mesh.C(3, 3)
	g := grid(t, mesh.Square(8), mesh.C(4, 3), mesh.C(3, 4), mesh.C(2, 3), mesh.C(3, 2))
	if !g.IsUseless(c) || !g.IsCantReach(c) {
		t.Fatalf("%v: useless=%v can't-reach=%v, want both", c, g.IsUseless(c), g.IsCantReach(c))
	}
	if g.Status(c) != Useless {
		t.Errorf("%v = %v, want useless display", c, g.Status(c))
	}
	// (2,2) turns useless and (4,4) can't-reach; the dual-labeled node
	// counts once, as useless.
	if _, faulty, useless, cr := g.Counts(); faulty != 4 || useless != 2 || cr != 1 {
		t.Errorf("Counts faulty/useless/can't-reach = %d/%d/%d, want 4/2/1", faulty, useless, cr)
	}
}

// Coordinates outside the mesh read safe under the border rule, but are
// never Safe() because they are not in the mesh.
func TestStatusOutsideMeshFollowsPolicy(t *testing.T) {
	g := grid(t, mesh.Square(4))
	if g.Status(mesh.C(-1, 0)) != Safe || g.Unsafe(mesh.C(4, 0)) {
		t.Error("outside status must be safe")
	}
	if g.Safe(mesh.C(-1, 0)) {
		t.Error("outside coordinates are never Safe() (not in mesh)")
	}
}

func TestFixpointInvariantRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		m := mesh.Square(20)
		f := fault.Uniform{}.Generate(m, r.Intn(150), r)
		g := Compute(f)
		if !g.Fixpoint() {
			t.Fatalf("trial %d: labeling not at fixpoint", trial)
		}
		checkUnsafeNodes(t, g)
		// Every faulty node is labeled faulty; no safe node lost.
		for _, c := range f.Coords() {
			if g.Status(c) != Faulty {
				t.Fatalf("fault %v labeled %v", c, g.Status(c))
			}
		}
	}
}

// TestDistributedMatchesCentral holds Compute to the protocol, which
// bootstraps every node where Compute seeds its worklist only at the
// faulty nodes' neighbours. Besides random fields it covers what those
// rarely hit: no faults, faults at corners and borders, and full fault
// rows and columns.
func TestDistributedMatchesCentral(t *testing.T) {
	check := func(name string, f *fault.Set) {
		t.Helper()
		central := Compute(f)
		dist, net := ComputeDistributed(f)
		if !central.Equal(dist) {
			t.Fatalf("%s: distributed labeling differs from central", name)
		}
		checkUnsafeNodes(t, central)
		checkUnsafeNodes(t, dist)
		if net.Participants() == 0 {
			t.Fatalf("%s: distributed labeling had no participants", name)
		}
	}
	m := mesh.New(12, 9)
	w, h := m.Width(), m.Height()
	line := func(f *fault.Set, from, step mesh.Coord) *fault.Set {
		for c := from; m.In(c); c = mesh.C(c.X+step.X, c.Y+step.Y) {
			f.Add(c)
		}
		return f
	}
	check("fault-free", fault.NewSet(m))
	check("fault-free square", fault.NewSet(mesh.Square(16)))
	check("corners", fault.FromCoords(m, mesh.C(0, 0), mesh.C(w-1, 0), mesh.C(0, h-1), mesh.C(w-1, h-1)))
	check("corner pockets", fault.FromCoords(m, mesh.C(1, 0), mesh.C(0, 1), mesh.C(w-2, h-1), mesh.C(w-1, h-2)))
	check("borders", fault.FromCoords(m, mesh.C(5, 0), mesh.C(0, 4), mesh.C(w-1, 3), mesh.C(7, h-1), mesh.C(6, 1), mesh.C(1, 5)))
	check("bottom row", line(fault.NewSet(m), mesh.C(0, 0), mesh.C(1, 0)))
	check("middle row", line(fault.NewSet(m), mesh.C(0, 4), mesh.C(1, 0)))
	check("left column", line(fault.NewSet(m), mesh.C(0, 0), mesh.C(0, 1)))
	check("middle column", line(fault.NewSet(m), mesh.C(6, 0), mesh.C(0, 1)))
	check("row and column", line(line(fault.NewSet(m), mesh.C(0, 3), mesh.C(1, 0)), mesh.C(8, 0), mesh.C(0, 1)))
	check("row with gap", func() *fault.Set {
		f := line(fault.NewSet(m), mesh.C(0, 6), mesh.C(1, 0))
		f.Remove(mesh.C(4, 6))
		return f
	}())

	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		f := fault.Uniform{}.Generate(mesh.Square(16), r.Intn(80), r)
		check(fmt.Sprintf("trial %d", trial), f)
	}
}

func TestDistributedClusterChain(t *testing.T) {
	// A long anti-diagonal chain exercises multi-round label propagation.
	m := mesh.Square(30)
	f := fault.NewSet(m)
	for i := 0; i < 12; i++ {
		f.Add(mesh.C(5+i, 20-i))
	}
	central := Compute(f)
	dist, net := ComputeDistributed(f)
	if !central.Equal(dist) {
		t.Fatal("distributed differs on anti-diagonal chain")
	}
	if central.UnsafeCount() != 12*13/2*2-12 { // filled triangle both sides: 12 + 2*(11+10+...+1) = 12+2*66-... compute directly below
		// The closed region of a length-k anti-diagonal is the full k x k
		// square: 144 nodes.
		if central.UnsafeCount() != 144 {
			t.Fatalf("UnsafeCount = %d, want 144", central.UnsafeCount())
		}
	}
	if net.Rounds() < 12 {
		t.Errorf("expected at least 12 propagation rounds, got %d", net.Rounds())
	}
}

func TestRecomputeAfterRepair(t *testing.T) {
	m := mesh.Square(10)
	f := fault.FromCoords(m, mesh.C(4, 6), mesh.C(5, 5), mesh.C(6, 4))
	g := Compute(f)
	if g.UnsafeCount() != 9 {
		t.Fatalf("pre-repair unsafe = %d", g.UnsafeCount())
	}
	f.Remove(mesh.C(5, 5))
	g = Compute(f)
	if g.UnsafeCount() != 2 {
		t.Fatalf("post-repair unsafe = %d, want 2", g.UnsafeCount())
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{Safe: "safe", Faulty: "faulty", Useless: "useless", CantReach: "can't-reach"}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("String(%d) = %q, want %q", st, st.String(), s)
		}
	}
	if Status(9).String() != "status(9)" {
		t.Error("unknown status string")
	}
}

func TestUnsafePredicate(t *testing.T) {
	for _, st := range []Status{Faulty, Useless, CantReach} {
		if !st.Unsafe() {
			t.Errorf("%v must be unsafe", st)
		}
	}
	if Safe.Unsafe() {
		t.Error("safe must not be unsafe")
	}
}
