package routing

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/spath"
)

var allAlgos = []Algo{Ecube, RB1, RB2, RB3}

func TestFaultFreeAllAlgorithmsAreMinimal(t *testing.T) {
	m := mesh.Square(10)
	a := NewAnalysis(fault.NewSet(m))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 80; i++ {
		s := mesh.C(r.Intn(10), r.Intn(10))
		d := mesh.C(r.Intn(10), r.Intn(10))
		for _, algo := range allAlgos {
			res := Route(a, algo, s, d, Options{})
			if !res.Delivered {
				t.Fatalf("%v undelivered %v->%v: %s", algo, s, d, res.Abort)
			}
			if res.Hops != s.Manhattan(d) {
				t.Fatalf("%v path %v->%v has %d hops, want Manhattan %d",
					algo, s, d, res.Hops, s.Manhattan(d))
			}
			if !spath.PathValid(a.Faults(), s, d, res.Path) {
				t.Fatalf("%v produced invalid path %v", algo, res.Path)
			}
		}
	}
}

func TestSingleBlockerDetours(t *testing.T) {
	// Anti-diagonal wall (0,3),(1,2),(2,1),(3,0) closes to a 4x4 MCC over
	// [0:3, 0:3]; s=(0,0) is inside it... choose s,d outside: s=(0,4)?
	// s must be safe: the filled square covers [0..3]x[0..3]. Route from
	// (4,0) to... pick a clean single blocker instead.
	m := mesh.Square(9)
	f := fault.FromCoords(m, mesh.C(3, 4), mesh.C(4, 3)) // closes to 2x2 [3:4,3:4]
	a := NewAnalysis(f)
	s, d := mesh.C(3, 1), mesh.C(4, 7)
	want := spath.Distance(f, s, d)
	for _, algo := range allAlgos {
		res := Route(a, algo, s, d, Options{})
		if !res.Delivered {
			t.Fatalf("%v undelivered: %s", algo, res.Abort)
		}
		if !spath.PathValid(f, s, d, res.Path) {
			t.Fatalf("%v invalid path", algo)
		}
		if int32(res.Hops) < want {
			t.Fatalf("%v beat BFS: %d < %d", algo, res.Hops, want)
		}
	}
	// RB2 must achieve the optimum (Theorem 1).
	res := Route(a, RB2, s, d, Options{})
	if int32(res.Hops) != want {
		t.Errorf("RB2 hops %d, BFS %d", res.Hops, want)
	}
}

func TestBlockedCaseUsesDetourCorner(t *testing.T) {
	// Single cell MCC at (5,5): s directly below, d directly above: the
	// Manhattan distance is unreachable (D = M + 2). RB2 must route around
	// a corner, reaching exactly D.
	m := mesh.Square(12)
	f := fault.FromCoords(m, mesh.C(5, 5))
	a := NewAnalysis(f)
	s, d := mesh.C(5, 3), mesh.C(5, 8)
	res := Route(a, RB2, s, d, Options{})
	if !res.Delivered || res.Hops != 7 { // M=5, detour +2
		t.Fatalf("RB2: delivered=%v hops=%d (want 7): %s", res.Delivered, res.Hops, res.Abort)
	}
	if res.Phases == 0 {
		t.Error("RB2 blocked case should use at least one pivot phase")
	}
}

func TestAllOrientations(t *testing.T) {
	// The same single blocker must be detoured in every travel quadrant.
	m := mesh.Square(12)
	f := fault.FromCoords(m, mesh.C(5, 5), mesh.C(6, 6)) // interlocked diagonal
	a := NewAnalysis(f)
	cases := [][2]mesh.Coord{
		{mesh.C(5, 3), mesh.C(6, 8)}, // NE
		{mesh.C(6, 3), mesh.C(5, 8)}, // NW-ish start... keep generic
		{mesh.C(2, 2), mesh.C(9, 9)},
		{mesh.C(9, 9), mesh.C(2, 2)},
		{mesh.C(2, 9), mesh.C(9, 2)},
		{mesh.C(9, 2), mesh.C(2, 9)},
	}
	for _, c := range cases {
		s, d := c[0], c[1]
		want := spath.Distance(f, s, d)
		for _, algo := range allAlgos {
			res := Route(a, algo, s, d, Options{})
			if !res.Delivered {
				t.Fatalf("%v undelivered %v->%v: %s", algo, s, d, res.Abort)
			}
			if !spath.PathValid(f, s, d, res.Path) {
				t.Fatalf("%v invalid path %v->%v", algo, s, d)
			}
			if algo == RB2 && int32(res.Hops) != want {
				t.Errorf("RB2 %v->%v: hops %d, BFS %d", s, d, res.Hops, want)
			}
		}
	}
}

// The repository's core claim check: on random connected fault fields, RB2
// achieves the BFS-optimal length in (essentially) all cases, RB3 in most,
// and everything delivered is a valid path. Thresholds are deliberately a
// little below the paper's (100% / >95%) to keep the test robust across
// seeds while still catching regressions;
// internal/eval/testdata/fig5_quick.golden records the measured rates at
// quick scale (40x40, up to 480 faults).
func TestRandomFieldsOptimalityRates(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	type stat struct{ routed, optimal, delivered int }
	stats := map[Algo]*stat{}
	for _, algo := range allAlgos {
		stats[algo] = &stat{}
	}
	for trial := 0; trial < 25; trial++ {
		m := mesh.Square(20)
		f, ok := fault.GenerateConnected(fault.Uniform{}, m, 10+r.Intn(50), r, 30)
		if !ok {
			continue
		}
		a := NewAnalysis(f)
		bfsCache := map[mesh.Coord]*spath.BFS{}
		for i := 0; i < 25; i++ {
			s := mesh.C(r.Intn(20), r.Intn(20))
			d := mesh.C(r.Intn(20), r.Intn(20))
			// Safe endpoints in every orientation, per the paper's setup.
			if !a.Grid(mesh.OrientFor(s, d)).Safe(mesh.OrientFor(s, d).To(m, s)) {
				continue
			}
			if !a.Grid(mesh.OrientFor(s, d)).Safe(mesh.OrientFor(s, d).To(m, d)) {
				continue
			}
			b := bfsCache[s]
			if b == nil {
				b = spath.NewBFS(f, s)
				bfsCache[s] = b
			}
			if !b.Reachable(d) {
				continue
			}
			want := b.Dist(d)
			for _, algo := range allAlgos {
				res := Route(a, algo, s, d, Options{})
				st := stats[algo]
				st.routed++
				if !res.Delivered {
					continue
				}
				st.delivered++
				if !spath.PathValid(f, s, d, res.Path) {
					t.Fatalf("%v invalid path %v->%v (trial %d)", algo, s, d, trial)
				}
				if int32(res.Hops) < want {
					t.Fatalf("%v beat BFS %v->%v: %d < %d", algo, s, d, res.Hops, want)
				}
				if int32(res.Hops) == want {
					st.optimal++
				}
			}
		}
	}
	for _, algo := range allAlgos {
		st := stats[algo]
		if st.routed == 0 {
			t.Fatal("no pairs routed")
		}
		delivRate := float64(st.delivered) / float64(st.routed)
		optRate := float64(st.optimal) / float64(st.routed)
		t.Logf("%v: routed=%d delivered=%.1f%% optimal=%.1f%%",
			algo, st.routed, delivRate*100, optRate*100)
		if delivRate < 0.98 {
			t.Errorf("%v delivery rate %.1f%% below 98%%", algo, delivRate*100)
		}
		switch algo {
		case RB2:
			if optRate < 0.97 {
				t.Errorf("RB2 optimal rate %.1f%% below 97%%", optRate*100)
			}
		case RB3:
			if optRate < 0.85 {
				t.Errorf("RB3 optimal rate %.1f%% below 85%%", optRate*100)
			}
		case RB1:
			if optRate < 0.60 {
				t.Errorf("RB1 optimal rate %.1f%% below 60%%", optRate*100)
			}
		}
	}
}

func TestEndpointValidation(t *testing.T) {
	m := mesh.Square(5)
	f := fault.FromCoords(m, mesh.C(2, 2))
	a := NewAnalysis(f)
	if res := Route(a, RB2, mesh.C(2, 2), mesh.C(0, 0), Options{}); res.Delivered || res.Abort == "" {
		t.Error("faulty source accepted")
	}
	if res := Route(a, RB2, mesh.C(0, 0), mesh.C(9, 9), Options{}); res.Delivered || res.Abort == "" {
		t.Error("out-of-mesh destination accepted")
	}
	res := Route(a, RB2, mesh.C(1, 1), mesh.C(1, 1), Options{})
	if !res.Delivered || res.Hops != 0 {
		t.Error("s == d must deliver with zero hops")
	}
}

func TestPoliciesAllDeliverMinimal(t *testing.T) {
	m := mesh.Square(12)
	f := fault.FromCoords(m, mesh.C(5, 5))
	a := NewAnalysis(f)
	s, d := mesh.C(1, 1), mesh.C(10, 10)
	want := spath.Distance(f, s, d)
	for _, p := range []Policy{PolicyDiagonal, PolicyXFirst, PolicyYFirst} {
		res := Route(a, RB2, s, d, Options{Policy: p})
		if !res.Delivered || int32(res.Hops) != want {
			t.Errorf("policy %v: delivered=%v hops=%d want %d", p, res.Delivered, res.Hops, want)
		}
	}
}

func TestAlgoStringsAndModels(t *testing.T) {
	names := map[Algo]string{Ecube: "E-cube", RB1: "RB1", RB2: "RB2", RB3: "RB3"}
	for a, s := range names {
		if a.String() != s {
			t.Errorf("Algo(%d).String() = %q", a, a.String())
		}
	}
	if RB2.Model().String() != "B2" || RB3.Model().String() != "B3" || RB1.Model().String() != "B1" {
		t.Error("algo->model mapping wrong")
	}
	if Algo(9).String() != "Algo(9)" {
		t.Error("unknown algo string")
	}
	if PolicyDiagonal.String() != "diagonal" || Policy(9).String() != "policy?" {
		t.Error("policy strings")
	}
}
