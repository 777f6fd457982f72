package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

func TestAnalysisLazyCaching(t *testing.T) {
	m := mesh.Square(10)
	a := NewAnalysis(fault.FromCoords(m, mesh.C(5, 5)))
	g1 := a.Grid(mesh.NE)
	if g1 != a.Grid(mesh.NE) {
		t.Error("Grid not cached")
	}
	s1 := a.MCCs(mesh.SW)
	if s1 != a.MCCs(mesh.SW) {
		t.Error("MCCs not cached")
	}
	st := a.Store(info.B1, mesh.NE)
	if st != a.Store(info.B1, mesh.NE) {
		t.Error("Store not cached")
	}
	if a.Store(info.B2, mesh.NE) == st {
		t.Error("distinct models share a store")
	}
	if a.Mesh() != m || a.Faults().Count() != 1 {
		t.Error("accessors wrong")
	}
}

func TestAnalysisOrientationFrames(t *testing.T) {
	// A fault at (2,3) in a 10x10 mesh appears at the mirrored position in
	// each orientation's labeling frame.
	m := mesh.Square(10)
	a := NewAnalysis(fault.FromCoords(m, mesh.C(2, 3)))
	for _, o := range mesh.Orients {
		g := a.Grid(o)
		want := o.To(m, mesh.C(2, 3))
		if g.Status(want) != labeling.Faulty {
			t.Errorf("orient %v: fault not at %v in canonical frame", o, want)
		}
		if g.UnsafeCount() != 1 {
			t.Errorf("orient %v: unsafe=%d", o, g.UnsafeCount())
		}
	}
}

func TestEnvForSelectsLegOrientation(t *testing.T) {
	m := mesh.Square(10)
	a := NewAnalysis(fault.NewSet(m))
	cases := []struct {
		u, t mesh.Coord
		want mesh.Orient
	}{
		{mesh.C(1, 1), mesh.C(8, 8), mesh.NE},
		{mesh.C(8, 1), mesh.C(1, 8), mesh.NW},
		{mesh.C(1, 8), mesh.C(8, 1), mesh.SE},
		{mesh.C(8, 8), mesh.C(1, 1), mesh.SW},
	}
	for _, c := range cases {
		if e := a.envFor(c.u, c.t, info.B1); e.orient != c.want {
			t.Errorf("envFor(%v,%v) orient = %v, want %v", c.u, c.t, e.orient, c.want)
		}
	}
}

func TestAnalysisBorderPolicyPlumbed(t *testing.T) {
	m := mesh.Square(6)
	a := NewAnalysisWithPolicy(fault.NewSet(m), labeling.BorderFaulty)
	if a.Grid(mesh.NE).SafeCount() != 0 {
		t.Error("BorderFaulty cascade not applied (policy not plumbed)")
	}
}
