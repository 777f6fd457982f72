package labeling

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

func grid(t *testing.T, m mesh.Mesh, faults ...mesh.Coord) *Grid {
	t.Helper()
	return Compute(fault.FromCoords(m, faults...), BorderSafe)
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
			t.Errorf("corner %v = %v under BorderSafe, want safe", c, g.Status(c))
		}
	}
}

func TestBorderFaultyLabelsCorners(t *testing.T) {
	g := Compute(fault.NewSet(mesh.Square(8)), BorderFaulty)
	// (7,7): +X and +Y neighbors are virtual faulty -> useless, and the
	// label cascades over the whole mesh (each node's +X/+Y neighbors become
	// useless in turn); symmetrically can't-reach cascades from (0,0). This
	// degeneracy is why BorderFaulty exists only for the ablation study.
	if !g.IsUseless(mesh.C(7, 7)) {
		t.Errorf("NE corner not useless under BorderFaulty")
	}
	if !g.IsCantReach(mesh.C(0, 0)) {
		t.Errorf("SW corner not can't-reach under BorderFaulty")
	}
	if g.SafeCount() != 0 {
		t.Errorf("BorderFaulty on fault-free mesh: %d safe nodes, want 0 (full cascade)", g.SafeCount())
	}
	// Dual-labeled nodes display as useless per Status precedence.
	if g.Status(mesh.C(3, 3)) != Useless {
		t.Errorf("interior = %v, want useless display", g.Status(mesh.C(3, 3)))
	}
}

func TestStatusOutsideMeshFollowsPolicy(t *testing.T) {
	gSafe := Compute(fault.NewSet(mesh.Square(4)), BorderSafe)
	if gSafe.Status(mesh.C(-1, 0)) != Safe {
		t.Error("BorderSafe outside status must be safe")
	}
	if gSafe.Safe(mesh.C(-1, 0)) {
		t.Error("outside coordinates are never Safe() (not in mesh)")
	}
	gF := Compute(fault.NewSet(mesh.Square(4)), BorderFaulty)
	if gF.Status(mesh.C(4, 0)) != Faulty {
		t.Error("BorderFaulty outside status must be faulty")
	}
}

func TestFixpointInvariantRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		m := mesh.Square(20)
		f := fault.Uniform{}.Generate(m, r.Intn(150), r)
		for _, pol := range []BorderPolicy{BorderSafe, BorderFaulty} {
			g := Compute(f, pol)
			if !g.Fixpoint() {
				t.Fatalf("trial %d policy %v: labeling not at fixpoint", trial, pol)
			}
			// Every faulty node is labeled faulty; no safe node lost.
			for _, c := range f.Coords() {
				if g.Status(c) != Faulty {
					t.Fatalf("fault %v labeled %v", c, g.Status(c))
				}
			}
		}
	}
}

func TestDistributedMatchesCentral(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		m := mesh.Square(16)
		f := fault.Uniform{}.Generate(m, r.Intn(80), r)
		for _, pol := range []BorderPolicy{BorderSafe, BorderFaulty} {
			central := Compute(f, pol)
			dist, net := ComputeDistributed(f, pol)
			if !central.Equal(dist) {
				t.Fatalf("trial %d policy %v: distributed labeling differs from central", trial, pol)
			}
			if net.Participants() == 0 {
				t.Fatal("distributed labeling had no participants")
			}
		}
	}
}

func TestDistributedClusterChain(t *testing.T) {
	// A long anti-diagonal chain exercises multi-round label propagation.
	m := mesh.Square(30)
	f := fault.NewSet(m)
	for i := 0; i < 12; i++ {
		f.Add(mesh.C(5+i, 20-i))
	}
	central := Compute(f, BorderSafe)
	dist, net := ComputeDistributed(f, BorderSafe)
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
	g := Compute(f, BorderSafe)
	if g.UnsafeCount() != 9 {
		t.Fatalf("pre-repair unsafe = %d", g.UnsafeCount())
	}
	f.Remove(mesh.C(5, 5))
	g = Compute(f, BorderSafe)
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
	if BorderSafe.String() != "border-safe" || BorderFaulty.String() != "border-faulty" {
		t.Error("policy strings changed")
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
