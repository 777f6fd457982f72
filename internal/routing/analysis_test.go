package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

// TestAnalysisAccessorsReturnBuiltState checks that NewAnalysis builds
// every orientation's grid, MCC set and named stores before returning,
// that the accessors hand back those objects, and that a model left out
// has no store.
func TestAnalysisAccessorsReturnBuiltState(t *testing.T) {
	m := mesh.Square(10)
	f := fault.FromCoords(m, mesh.C(5, 5))
	a := NewAnalysis(f)
	for _, o := range mesh.Orients {
		if !a.Grid(o).Equal(labeling.Compute(f.Mirror(o))) {
			t.Errorf("orient %v: Grid is not the orientation's labeling", o)
		}
		if a.MCCs(o).Grid() != a.Grid(o) {
			t.Errorf("orient %v: MCCs not extracted from Grid", o)
		}
		for _, mod := range []info.Model{info.B1, info.B2, info.B3} {
			if st := a.Store(mod, o); st == nil || st.Set() != a.MCCs(o) || st.Model() != mod {
				t.Errorf("orient %v: no %v store built on the orientation's MCC set", o, mod)
			}
		}
		if a.Store(info.B1, o) == a.Store(info.B2, o) || a.Store(info.B2, o) == a.Store(info.B3, o) {
			t.Errorf("orient %v: distinct models share a store", o)
		}
	}
	if a.Mesh() != m || a.Faults().Count() != 1 {
		t.Error("accessors wrong")
	}
	b2 := NewAnalysis(f, info.B2)
	for _, o := range mesh.Orients {
		if b2.Store(info.B2, o) == nil || b2.Store(info.B1, o) != nil || b2.Store(info.B3, o) != nil {
			t.Errorf("orient %v: a B2-only analysis must hold the B2 store and no other", o)
		}
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
