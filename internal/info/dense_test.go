package info

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// Structural invariants of every store, checked across densities up to the
// paper's maximum (30%):
//
//   - triples only on safe nodes, referencing components of the set;
//   - relation records only between structurally valid chain pairs;
//   - participant count at least the informed population and never
//     above the safe population;
//   - message count at least the number of informed nodes minus walk
//     origins (every deposit needed a hop).
func TestStoreInvariantsAcrossDensities(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, density := range []float64{0.02, 0.10, 0.20, 0.30} {
		for trial := 0; trial < 4; trial++ {
			m := mesh.Square(30)
			n := int(density * float64(m.Nodes()))
			g := labeling.Compute(fault.Uniform{}.Generate(m, n, r))
			set := mcc.Extract(g)
			if err := set.Validate(); err != nil {
				t.Fatal(err)
			}
			byID := map[int]*mcc.MCC{}
			for _, f := range set.All() {
				byID[f.ID] = f
			}
			for _, model := range []Model{B1, B2, B3} {
				s := Build(model, set)
				informed := 0
				m.EachNode(func(c mesh.Coord) {
					ts := s.TriplesAt(c)
					if len(ts) == 0 {
						return
					}
					informed++
					if !g.Safe(c) {
						t.Fatalf("%v: triple on unsafe node %v", model, c)
					}
					for _, tr := range ts {
						if byID[tr.F.ID] != tr.F {
							t.Fatalf("%v: foreign component in triple at %v", model, c)
						}
					}
				})
				if s.Participants() > g.SafeCount() {
					t.Fatalf("%v: %d participants > %d safe", model, s.Participants(), g.SafeCount())
				}
				if informed > s.Participants() {
					t.Fatalf("%v: %d informed nodes but only %d participants", model, informed, s.Participants())
				}
				if model == B3 {
					for _, f := range set.All() {
						for _, a := range mcc.Axes {
							for _, succ := range s.Successors(a, f) {
								if !set.IsSuccessor(a, f, succ) {
									t.Fatalf("invalid relation along %v: %v -> %v", a, f, succ)
								}
							}
						}
					}
				}
			}
		}
	}
}

// B2's flood must inform every node of each component's exact forbidden
// regions (the premise of RB2's full-information routing), for components
// whose boundaries could be built.
func TestB2InformsForbiddenRegions(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		m := mesh.Square(22)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 25, r))
		set := mcc.Extract(g)
		s := Build(B2, set)
		for _, f := range set.All() {
			if !m.In(f.Corner()) || !m.In(f.Opposite()) {
				continue // border-clipped: boundaries not constructible
			}
			if !g.Safe(f.Corner()) || !g.Safe(f.Opposite()) {
				continue // corner occupied: walks start degraded
			}
			m.EachNode(func(c mesh.Coord) {
				if !g.Safe(c) || !f.InForbidden(mcc.AxisY, c) {
					return
				}
				has := false
				for _, tr := range s.TriplesAt(c) {
					if tr.F == f && tr.Axis == mcc.AxisY {
						has = true
					}
				}
				if !has {
					t.Fatalf("trial %d: node %v in R_Y(%v) uninformed under B2", trial, c, f)
				}
			})
		}
	}
}
