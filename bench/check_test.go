package bench

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/spath"
)

func TestCheckRouteRejects(t *testing.T) {
	g := NewGrid(5, 5, []mesh.Coord{mesh.C(2, 2)})
	line := []mesh.Coord{mesh.C(0, 0), mesh.C(0, 1), mesh.C(0, 2), mesh.C(0, 3)}
	cases := []struct {
		name     string
		src, dst mesh.Coord
		path     []mesh.Coord
		hops     int
		dist     int32
		want     error
	}{
		{"valid", mesh.C(0, 0), mesh.C(0, 3), line, 3, 3, nil},
		{"non-adjacent hop", mesh.C(0, 0), mesh.C(0, 3), []mesh.Coord{mesh.C(0, 0), mesh.C(0, 2), mesh.C(0, 3)}, 2, 3, ErrStep},
		{"diagonal hop", mesh.C(0, 0), mesh.C(1, 1), []mesh.Coord{mesh.C(0, 0), mesh.C(1, 1)}, 1, 2, ErrStep},
		{"standing still", mesh.C(0, 0), mesh.C(0, 1), []mesh.Coord{mesh.C(0, 0), mesh.C(0, 0), mesh.C(0, 1)}, 2, 1, ErrStep},
		{"faulty node", mesh.C(1, 2), mesh.C(3, 2), []mesh.Coord{mesh.C(1, 2), mesh.C(2, 2), mesh.C(3, 2)}, 2, 4, ErrFaultyNode},
		{"off the mesh", mesh.C(0, 0), mesh.C(0, 1), []mesh.Coord{mesh.C(0, 0), mesh.C(-1, 0), mesh.C(-1, 1), mesh.C(0, 1)}, 3, 1, ErrFaultyNode},
		{"wrong source", mesh.C(0, 0), mesh.C(0, 3), line[1:], 2, 3, ErrEndpoints},
		{"wrong destination", mesh.C(0, 0), mesh.C(0, 4), line, 3, 4, ErrEndpoints},
		{"empty path", mesh.C(0, 0), mesh.C(0, 3), nil, 0, 3, ErrEndpoints},
		{"hop count mismatch", mesh.C(0, 0), mesh.C(0, 3), line, 4, 3, ErrHopCount},
		{"shorter than BFS", mesh.C(0, 0), mesh.C(0, 3), line, 3, 5, ErrBelowBFS},
	}
	for _, tc := range cases {
		err := g.CheckRoute(tc.src, tc.dst, tc.path, tc.hops, tc.dist)
		if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDistancesMatchSpath cross-checks the checker's BFS against
// internal/spath on random fault sets of several sizes and densities.
func TestDistancesMatchSpath(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		w, h := 4+r.Intn(28), 4+r.Intn(28)
		m := mesh.New(w, h)
		f := fault.Uniform{}.Generate(m, r.Intn(w*h*3/10+1), r)
		g := NewGrid(w, h, f.Coords())
		for q := 0; q < 20; q++ {
			s, d := mesh.C(r.Intn(w), r.Intn(h)), mesh.C(r.Intn(w), r.Intn(h))
			got, want := g.Distance(s, d), spath.Distance(f, s, d)
			if want >= spath.Infinite {
				want = Unreachable
			}
			if got != want {
				t.Fatalf("%dx%d, %d faults: D(%v,%v) = %d, spath says %d", w, h, f.Count(), s, d, got, want)
			}
		}
	}
}
