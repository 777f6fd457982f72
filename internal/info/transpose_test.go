package info

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// TestTranspositionSymmetry checks that every model built on the
// transposed fault set f^T (x and y swapped) is the transpose of the model
// built on f: the same participants and messages; at every node c the
// triples held at c^T, with the RY and RX kinds swapped (RY/-X <-> RX/-Y,
// RY/+X <-> RX/+Y); and B3's type-I relations on f equal to its type-II
// relations on f^T and vice versa. Component IDs follow discovery order,
// which transposition changes, so components are matched by cell set.
func TestTranspositionSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(0x7a))
	relations := 0
	for trial := 0; trial < 60; trial++ {
		w, h := 16+r.Intn(10), 16+r.Intn(10)
		f := fault.Uniform{}.Generate(mesh.New(w, h), w*h/12, r)
		cs := f.Coords()
		for i, c := range cs {
			cs[i] = mesh.C(c.Y, c.X)
		}
		set := mcc.Extract(labeling.Compute(f))
		setT := mcc.Extract(labeling.Compute(fault.FromCoords(mesh.New(h, w), cs...)))

		// tr[id] is the ID of the component of f^T whose cells are the
		// transposed cells of component id.
		if set.Len() != setT.Len() {
			t.Fatalf("trial %d: %d components, transpose has %d", trial, set.Len(), setT.Len())
		}
		tr := make([]int, set.Len())
		for _, F := range set.All() {
			g := setT.At(mesh.C(F.ColLo[0], F.X0))
			for x := F.X0; x <= F.X1; x++ {
				for y := F.ColLo[x-F.X0]; y <= F.ColHi[x-F.X0]; y++ {
					if setT.At(mesh.C(y, x)) != g {
						t.Fatalf("trial %d: %v is not one component when transposed", trial, F)
					}
				}
			}
			if g.Cells != F.Cells {
				t.Fatalf("trial %d: %v has %d cells, its transpose %v has %d", trial, F, F.Cells, g, g.Cells)
			}
			tr[F.ID] = g.ID
		}

		for _, model := range []Model{B1, B2, B3} {
			s, sT := Build(model, set), Build(model, setT)
			if s.Participants() != sT.Participants() || s.Messages() != sT.Messages() {
				t.Fatalf("trial %d %v: accounting %d/%d, transpose %d/%d", trial, model,
					s.Participants(), s.Messages(), sT.Participants(), sT.Messages())
			}
			var got, want []int
			s.m.EachNode(func(c mesh.Coord) {
				got, want = got[:0], want[:0]
				for _, tp := range s.TriplesAt(c) {
					got = append(got, tr[tp.F.ID]<<2|int(tp.Kind^2))
				}
				for _, tp := range sT.TriplesAt(mesh.C(c.Y, c.X)) {
					want = append(want, tp.F.ID<<2|int(tp.Kind))
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d %v: triples at %v are %v, transpose holds %v", trial, model, c, got, want)
				}
			})
			for _, F := range set.All() {
				for _, a := range mcc.Axes {
					got, want = got[:0], want[:0]
					for _, g := range s.Successors(a, F) {
						got = append(got, tr[g.ID])
					}
					for _, g := range sT.Successors(1-a, setT.All()[tr[F.ID]]) {
						want = append(want, g.ID)
					}
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d %v: successors of %v along %v are %v, transpose has %v",
							trial, model, F, a, got, want)
					}
					relations += len(got)
				}
			}
		}
	}
	if relations < 100 {
		t.Errorf("only %d B3 relations compared", relations)
	}
}
