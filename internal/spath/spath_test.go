package spath

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

func TestBFSFaultFreeEqualsManhattan(t *testing.T) {
	m := mesh.Square(12)
	f := fault.NewSet(m)
	s := mesh.C(3, 4)
	b := NewBFS(f, s)
	m.EachNode(func(d mesh.Coord) {
		if b.Dist(d) != int32(s.Manhattan(d)) {
			t.Fatalf("Dist(%v) = %d, want Manhattan %d", d, b.Dist(d), s.Manhattan(d))
		}
	})
}

// TestNewBFSKeepsOnlyItsField pins what a distance-oracle fill leaves
// behind: the BFS and its distance slice. The work queue goes back to its
// pool.
func TestNewBFSKeepsOnlyItsField(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	f := fault.FromCoords(mesh.Square(40), mesh.C(10, 10), mesh.C(11, 10))
	NewBFS(f, mesh.C(0, 0))
	if avg := testing.AllocsPerRun(20, func() { NewBFS(f, mesh.C(0, 0)) }); avg != 2 {
		t.Errorf("NewBFS allocates %.1f objects/op, want 2 (the BFS and its distances)", avg)
	}
}

func TestBFSDetourAroundWall(t *testing.T) {
	m := mesh.Square(7)
	// Wall at x=3 with a gap at y=6 forces a detour.
	f := fault.FromCoords(m,
		mesh.C(3, 0), mesh.C(3, 1), mesh.C(3, 2), mesh.C(3, 3), mesh.C(3, 4), mesh.C(3, 5))
	b := NewBFS(f, mesh.C(0, 0))
	d := mesh.C(6, 0)
	// Must climb to y=6 and back down: 6 right + 6 up + 6 down = 18.
	if got := b.Dist(d); got != 18 {
		t.Errorf("Dist = %d, want 18", got)
	}
}

func TestBFSUnreachable(t *testing.T) {
	m := mesh.Square(5)
	// Full wall disconnects.
	f := fault.FromCoords(m,
		mesh.C(2, 0), mesh.C(2, 1), mesh.C(2, 2), mesh.C(2, 3), mesh.C(2, 4))
	b := NewBFS(f, mesh.C(0, 0))
	if b.Reachable(mesh.C(4, 0)) {
		t.Error("wall must disconnect (4,0)")
	}
	if !b.Reachable(mesh.C(1, 4)) {
		t.Error("same side must stay reachable")
	}
	if b.Dist(mesh.C(2, 2)) != Infinite {
		t.Error("faulty node must be unreachable")
	}
	if b.Dist(mesh.C(-3, 0)) != Infinite {
		t.Error("outside mesh must be Infinite")
	}
}

func TestBFSFaultySource(t *testing.T) {
	m := mesh.Square(4)
	f := fault.FromCoords(m, mesh.C(1, 1))
	b := NewBFS(f, mesh.C(1, 1))
	if b.Reachable(mesh.C(0, 0)) || b.Reachable(mesh.C(1, 1)) {
		t.Error("faulty source must reach nothing")
	}
}

func TestDistanceSinglePair(t *testing.T) {
	m := mesh.Square(6)
	f := fault.NewSet(m)
	if got := Distance(f, mesh.C(0, 0), mesh.C(5, 5)); got != 10 {
		t.Errorf("Distance = %d, want 10", got)
	}
}

func TestManhattanReachableFaultFree(t *testing.T) {
	m := mesh.Square(10)
	f := fault.NewSet(m)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		s := mesh.C(r.Intn(10), r.Intn(10))
		d := mesh.C(r.Intn(10), r.Intn(10))
		if !ManhattanReachable(f, s, d) {
			t.Fatalf("fault-free Manhattan %v->%v must be reachable", s, d)
		}
	}
}

func TestManhattanReachableBlocked(t *testing.T) {
	m := mesh.Square(8)
	// Anti-diagonal wall across the s-d rectangle blocks every monotone path.
	f := fault.FromCoords(m, mesh.C(0, 3), mesh.C(1, 2), mesh.C(2, 1), mesh.C(3, 0))
	if ManhattanReachable(f, mesh.C(0, 0), mesh.C(4, 4)) {
		t.Error("anti-diagonal wall must block Manhattan path")
	}
	// The true shortest path still exists (detour), just longer.
	if Distance(f, mesh.C(0, 0), mesh.C(4, 4)) <= 8 {
		t.Error("detour must exceed Manhattan distance")
	}
	// A pair whose rectangle avoids the wall is fine.
	if !ManhattanReachable(f, mesh.C(4, 0), mesh.C(7, 3)) {
		t.Error("pair clear of the wall must be Manhattan-reachable")
	}
}

func TestManhattanReachableAllOrientations(t *testing.T) {
	m := mesh.Square(9)
	// Block the NE quadrant path between (2,2) and (6,6) only.
	f := fault.FromCoords(m, mesh.C(2, 5), mesh.C(3, 4), mesh.C(4, 3), mesh.C(5, 2))
	if ManhattanReachable(f, mesh.C(2, 2), mesh.C(6, 6)) {
		t.Error("NE pair must be blocked")
	}
	if ManhattanReachable(f, mesh.C(6, 6), mesh.C(2, 2)) {
		t.Error("SW pair (same rectangle) must be blocked")
	}
	// Perpendicular orientation through the same area is clear.
	if !ManhattanReachable(f, mesh.C(2, 6), mesh.C(6, 2)) {
		t.Error("SE pair must be clear")
	}
	if !ManhattanReachable(f, mesh.C(6, 2), mesh.C(2, 6)) {
		t.Error("NW pair must be clear")
	}
}

func TestManhattanReachableDegenerate(t *testing.T) {
	m := mesh.Square(5)
	f := fault.NewSet(m)
	if !ManhattanReachable(f, mesh.C(2, 2), mesh.C(2, 2)) {
		t.Error("s == d must be reachable")
	}
	f.Add(mesh.C(2, 2))
	if ManhattanReachable(f, mesh.C(2, 2), mesh.C(3, 3)) {
		t.Error("faulty source must not be reachable")
	}
	if ManhattanReachable(f, mesh.C(0, 0), mesh.C(2, 2)) {
		t.Error("faulty destination must not be reachable")
	}
	// Straight-line pair with an intervening fault.
	f2 := fault.FromCoords(m, mesh.C(2, 1))
	if ManhattanReachable(f2, mesh.C(2, 0), mesh.C(2, 3)) {
		t.Error("single-column path through a fault must be blocked")
	}
	if !ManhattanReachable(f2, mesh.C(1, 0), mesh.C(1, 3)) {
		t.Error("adjacent clear column must be reachable")
	}
}

// Property: ManhattanReachable(s,d) implies BFS distance == Manhattan
// distance, and conversely when BFS distance == Manhattan a monotone path
// exists.
func TestManhattanIffBFSEqualsManhattanDistance(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		m := mesh.Square(14)
		f := fault.Uniform{}.Generate(m, 25, r)
		s := mesh.C(r.Intn(14), r.Intn(14))
		if f.Faulty(s) {
			continue
		}
		b := NewBFS(f, s)
		m.EachNode(func(d mesh.Coord) {
			if f.Faulty(d) {
				return
			}
			mr := ManhattanReachable(f, s, d)
			bfsEq := b.Dist(d) == int32(s.Manhattan(d))
			if mr != bfsEq {
				t.Fatalf("trial %d %v->%v: ManhattanReachable=%v but BFS=%d M=%d",
					trial, s, d, mr, b.Dist(d), s.Manhattan(d))
			}
		})
	}
}

func TestPathValid(t *testing.T) {
	m := mesh.Square(5)
	f := fault.FromCoords(m, mesh.C(2, 2))
	s, d := mesh.C(0, 0), mesh.C(2, 0)
	good := []mesh.Coord{mesh.C(0, 0), mesh.C(1, 0), mesh.C(2, 0)}
	if !PathValid(f, s, d, good) {
		t.Error("good path rejected")
	}
	cases := map[string][]mesh.Coord{
		"empty":          {},
		"wrong start":    {mesh.C(1, 0), mesh.C(2, 0)},
		"wrong end":      {mesh.C(0, 0), mesh.C(1, 0)},
		"gap":            {mesh.C(0, 0), mesh.C(2, 0)},
		"diagonal hop":   {mesh.C(0, 0), mesh.C(1, 1), mesh.C(2, 0)},
		"through fault":  {mesh.C(0, 0), mesh.C(1, 0), mesh.C(2, 0), mesh.C(2, 1), mesh.C(2, 2)},
		"revisit simnet": {mesh.C(0, 0), mesh.C(0, 1), mesh.C(0, 0), mesh.C(1, 0), mesh.C(2, 0)},
	}
	for name, p := range cases {
		switch name {
		case "through fault":
			if PathValid(f, s, mesh.C(2, 2), p) {
				t.Errorf("%s accepted", name)
			}
		case "revisit simnet":
			// Revisits are legal (non-minimal but valid).
			if !PathValid(f, s, d, p) {
				t.Errorf("%s rejected; revisits are allowed", name)
			}
		default:
			if PathValid(f, s, d, p) {
				t.Errorf("%s accepted", name)
			}
		}
	}
}

func BenchmarkBFS100(b *testing.B) {
	m := mesh.Square(100)
	f := fault.Uniform{}.Generate(m, 1000, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBFS(f, mesh.C(0, 0))
	}
}

// The feasibility DP is benchmarked by BenchmarkManhattanReachable in
// oracle_test.go over a mix of non-faulty cross-mesh pairs. (The old
// BenchmarkManhattanReachable100 here hardcoded a faulty endpoint and
// measured only the early-out; it was removed rather than kept as a
// near-duplicate series in BENCH_routing.json.)

// TestManhattanReachableIsDistanceEqualsManhattan pins the identity the
// facade derives ManhattanFeasible from: a path of exactly M(s,d) hops
// exists iff the BFS distance D(s,d) equals M(s,d), since every path of
// M(s,d) hops is monotone and D(s,d) >= M(s,d). Healthy endpoints on
// random fields, s == d included.
func TestManhattanReachableIsDistanceEqualsManhattan(t *testing.T) {
	r := rand.New(rand.NewSource(0x5a7))
	pairs := 0
	for field := 0; field < 300; field++ {
		w, h := 2+r.Intn(14), 2+r.Intn(14)
		m := mesh.New(w, h)
		f := fault.Uniform{}.Generate(m, r.Intn(m.Nodes()/3+1), r)
		for q := 0; q < 60; q++ {
			s := mesh.C(r.Intn(w), r.Intn(h))
			d := s
			if q%10 != 0 {
				d = mesh.C(r.Intn(w), r.Intn(h))
			}
			if f.Faulty(s) || f.Faulty(d) {
				continue
			}
			pairs++
			want := Distance(f, s, d) == int32(s.Manhattan(d))
			if got := ManhattanReachable(f, s, d); got != want {
				t.Fatalf("field %d (%dx%d, %d faults): ManhattanReachable(%v,%v) = %v, D == M is %v",
					field, w, h, f.Count(), s, d, got, want)
			}
		}
	}
	if pairs < 5000 {
		t.Fatalf("only %d healthy pairs checked", pairs)
	}
}
