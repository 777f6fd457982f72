package routing

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/spath"
)

// cover12 rebuilds the deterministic 12x12/40-fault configurations the
// coverage tests below were mined from (random search over seeds for
// walks that exercise the downgrade and wall-flip recoveries).
func cover12(seed int64) *fault.Set {
	return fault.Uniform{}.Generate(mesh.Square(12), 40, rand.New(rand.NewSource(seed)))
}

// TestArriveFlipThresholds drives the walk's livelock detector directly:
// the flipVisits-th visit to one node must flip the detour wall side and
// close the active episode, and the abortVisits-th must mark the walk
// stuck.
func TestArriveFlipThresholds(t *testing.T) {
	f := fault.NewSet(mesh.Square(8))
	a := NewAnalysis(f)
	opt := Options{Scratch: NewScratch(a.Mesh())}
	w := a.newWalk(mesh.C(0, 0), mesh.C(7, 7), opt)
	// Fake an active episode so the flip also ends it.
	w.dt.active = true
	w.dt.heading = mesh.PlusX
	c := mesh.C(3, 3)
	for v := 0; v < flipVisits-1; v++ {
		w.arrive(c)
	}
	if w.dt.leftHand || !w.dt.active || w.res.WallFlips != 0 {
		t.Fatalf("pre-threshold state: leftHand=%v active=%v flips=%d", w.dt.leftHand, w.dt.active, w.res.WallFlips)
	}
	w.arrive(c) // flipVisits-th visit
	if !w.dt.leftHand || w.dt.active || w.res.WallFlips != 1 {
		t.Fatalf("flip threshold: leftHand=%v active=%v flips=%d", w.dt.leftHand, w.dt.active, w.res.WallFlips)
	}
	for !w.stuck {
		w.arrive(c)
	}
	if got := w.sc.bumpVisit(c) - 1; got != abortVisits {
		t.Fatalf("stuck after %d visits, want %d", got, abortVisits)
	}
}

// TestDowngradeSwitchesWallOnce pins the downgrade mechanics: the first
// call moves the wall from the orientation's unsafe mask to the physical
// faulty mask and reports the change; the second is a no-op.
func TestDowngradeSwitchesWallOnce(t *testing.T) {
	f := cover12(0)
	a := NewAnalysis(f)
	opt := Options{Scratch: NewScratch(a.Mesh())}
	w := a.newWalk(mesh.C(0, 0), mesh.C(11, 11), opt)
	w.useUnsafeWall(a.envFor(mesh.C(0, 0), mesh.C(11, 11), RB1.Model()))
	// Find a node that is unsafe (on the MCC wall) but not faulty: the
	// downgrade must stop treating it as an obstacle.
	var probe mesh.Coord
	found := false
	g := a.Grid(mesh.NE)
	a.Mesh().EachNode(func(c mesh.Coord) {
		if !found && g.Unsafe(c) && !f.Faulty(c) {
			probe, found = c, true
		}
	})
	if !found {
		t.Skip("configuration has no healthy-but-unsafe node")
	}
	if !w.obstacle(probe) {
		t.Fatalf("unsafe node %v not on the MCC wall", probe)
	}
	if !w.downgrade() {
		t.Fatal("first downgrade reported no change")
	}
	if w.obstacle(probe) {
		t.Fatalf("downgraded wall still blocks healthy node %v", probe)
	}
	if !w.res.Downgraded {
		t.Fatal("downgrade not recorded in the result")
	}
	if w.downgrade() {
		t.Fatal("second downgrade reported a change")
	}
}

// TestDetourDowngradeDelivers locks the downgrade path end to end: on
// this mined configuration the MCC-region wall encloses the walker and
// only the switch to the physical wall delivers. The walk must deliver a
// valid path and report Downgraded.
func TestDetourDowngradeDelivers(t *testing.T) {
	f := cover12(0)
	a := NewAnalysis(f)
	for _, tc := range []struct {
		algo Algo
		s, d mesh.Coord
	}{
		{RB1, mesh.C(8, 4), mesh.C(4, 6)},
		{RB1, mesh.C(3, 1), mesh.C(6, 6)},
		{RB2, mesh.C(8, 4), mesh.C(4, 6)},
	} {
		res := Route(a, tc.algo, tc.s, tc.d, Options{})
		if !res.Delivered {
			t.Fatalf("%v %v->%v: not delivered (%s)", tc.algo, tc.s, tc.d, res.Abort)
		}
		if !res.Downgraded {
			t.Errorf("%v %v->%v: expected a wall downgrade", tc.algo, tc.s, tc.d)
		}
		if !spath.PathValid(f, tc.s, tc.d, res.Path) {
			t.Errorf("%v %v->%v: invalid path %v", tc.algo, tc.s, tc.d, res.Path)
		}
	}
}

// TestWallFlipRecoversOrbit locks the flipVisits recovery end to end: on
// these mined configurations the fixed-hand detour orbits the wrong way
// around a cluster, and only the wall-side flip delivers.
func TestWallFlipRecoversOrbit(t *testing.T) {
	for _, tc := range []struct {
		algo Algo
		seed int64
		s, d mesh.Coord
	}{
		{Ecube, 13, mesh.C(0, 8), mesh.C(10, 0)},
		{RB2, 36, mesh.C(4, 6), mesh.C(10, 7)},
	} {
		f := cover12(tc.seed)
		a := NewAnalysis(f)
		res := Route(a, tc.algo, tc.s, tc.d, Options{})
		if !res.Delivered {
			t.Fatalf("%v seed %d %v->%v: not delivered (%s)", tc.algo, tc.seed, tc.s, tc.d, res.Abort)
		}
		if res.WallFlips == 0 {
			t.Errorf("%v seed %d %v->%v: expected wall flips", tc.algo, tc.seed, tc.s, tc.d)
		}
		if !spath.PathValid(f, tc.s, tc.d, res.Path) {
			t.Errorf("%v seed %d: invalid path %v", tc.algo, tc.seed, res.Path)
		}
	}
}

// TestScratchReuseMatchesFresh guards the epoch-tag reset logic: routing
// many different pairs through one shared scratch must reproduce the walk
// a fresh scratch (and the borrowed-pool path) produces, for every
// algorithm.
func TestScratchReuseMatchesFresh(t *testing.T) {
	for _, seed := range []int64{0, 13, 36, 99} {
		f := cover12(seed)
		a := NewAnalysis(f)
		shared := NewScratch(a.Mesh())
		r := rand.New(rand.NewSource(seed + 1000))
		for i := 0; i < 40; i++ {
			s := mesh.C(r.Intn(12), r.Intn(12))
			d := mesh.C(r.Intn(12), r.Intn(12))
			for _, algo := range []Algo{Ecube, RB1, RB2, RB3} {
				got := Route(a, algo, s, d, Options{Scratch: shared})
				want := Route(a, algo, s, d, Options{})
				if got.Delivered != want.Delivered || got.Hops != want.Hops ||
					got.Abort != want.Abort || got.Phases != want.Phases ||
					got.DetourHops != want.DetourHops || len(got.Path) != len(want.Path) {
					t.Fatalf("seed %d %v %v->%v: shared-scratch result %+v != fresh %+v",
						seed, algo, s, d, got, want)
				}
				for j := range got.Path {
					if got.Path[j] != want.Path[j] {
						t.Fatalf("seed %d %v %v->%v: paths diverge at hop %d", seed, algo, s, d, j)
					}
				}
			}
		}
	}
}

// TestRouteSteadyStateAllocs asserts the hot path's allocation contract:
// with a warm scratch, an unblocked walk allocates nothing, and neither
// do RB2 and RB3 walks whose planners certify blocking sequences: the
// finders fill the scratch's sequence buffers.
func TestRouteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	clean := fault.NewSet(mesh.Square(32))
	ca := NewAnalysis(clean)
	sc := NewScratch(ca.Mesh())
	Route(ca, RB2, mesh.C(1, 1), mesh.C(30, 29), Options{Scratch: sc})
	if avg := testing.AllocsPerRun(50, func() {
		Route(ca, RB2, mesh.C(1, 1), mesh.C(30, 29), Options{Scratch: sc})
	}); avg != 0 {
		t.Errorf("unblocked RB2 walk allocates %.1f objects/op, want 0", avg)
	}

	// The first random pair whose RB2 and RB3 walks both reach a planned
	// pivot: their finders certify and copy out blocking sequences.
	f := fault.Uniform{}.Generate(mesh.Square(32), 150, rand.New(rand.NewSource(3)))
	fa := NewAnalysis(f)
	r := rand.New(rand.NewSource(4))
	var s, d mesh.Coord
	for tries := 0; ; tries++ {
		if tries == 1000 {
			t.Fatal("no pair on the field plans under both RB2 and RB3")
		}
		s, d = mesh.C(r.Intn(32), r.Intn(32)), mesh.C(r.Intn(32), r.Intn(32))
		if Route(fa, RB2, s, d, Options{Scratch: sc}).Phases > 0 &&
			Route(fa, RB3, s, d, Options{Scratch: sc}).Phases > 0 {
			break
		}
	}
	for _, algo := range []Algo{RB2, RB3} {
		Route(fa, algo, s, d, Options{Scratch: sc})
		if avg := testing.AllocsPerRun(50, func() {
			Route(fa, algo, s, d, Options{Scratch: sc})
		}); avg != 0 {
			t.Errorf("planned %v walk %v->%v allocates %.1f objects/op, want 0", algo, s, d, avg)
		}
	}
}
