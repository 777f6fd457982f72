package routing

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/mesh"
)

// analysesEqual holds an incrementally rebuilt Analysis to byte-identical
// agreement with a from-scratch precompute: labels, MCC sets, flat wall
// bitsets, information-store triples, and routed paths for sampled pairs
// under all four algorithms.
func analysesEqual(t *testing.T, rng *rand.Rand, got, want *Analysis) {
	t.Helper()
	m := want.m
	for w := range want.faultyBits {
		if got.faultyBits[w] != want.faultyBits[w] {
			t.Fatalf("faultyBits word %d: %x, want %x", w, got.faultyBits[w], want.faultyBits[w])
		}
	}
	for o := mesh.Orient(0); o < mesh.NumOrients; o++ {
		if !got.Grid(o).Equal(want.Grid(o)) {
			t.Fatalf("orient %v: labels differ", o)
		}
		gs, ws := got.MCCs(o), want.MCCs(o)
		if gs.Len() != ws.Len() {
			t.Fatalf("orient %v: %d MCCs, want %d", o, gs.Len(), ws.Len())
		}
		for i, wf := range ws.All() {
			gf := gs.All()[i]
			if gf.ID != wf.ID || gf.X0 != wf.X0 || gf.X1 != wf.X1 ||
				gf.Y0 != wf.Y0 || gf.Y1 != wf.Y1 || gf.Cells != wf.Cells {
				t.Fatalf("orient %v MCC %d: %+v, want %+v", o, i, gf, wf)
			}
		}
		for w := range want.unsafeBits[o] {
			if got.unsafeBits[o][w] != want.unsafeBits[o][w] {
				t.Fatalf("orient %v unsafeBits word %d differ", o, w)
			}
		}
		for _, mod := range []info.Model{info.B1, info.B2, info.B3} {
			gst, wst := got.Store(mod, o), want.Store(mod, o)
			if gst.Participants() != wst.Participants() || gst.Messages() != wst.Messages() {
				t.Fatalf("orient %v %v: accounting %d/%d, want %d/%d", o, mod,
					gst.Participants(), gst.Messages(), wst.Participants(), wst.Messages())
			}
			for idx := 0; idx < m.Nodes(); idx++ {
				c := m.CoordOf(idx)
				gt, wt := gst.TriplesAt(c), wst.TriplesAt(c)
				if len(gt) != len(wt) {
					t.Fatalf("orient %v %v node %v: %d triples, want %d", o, mod, c, len(gt), len(wt))
				}
				for i := range wt {
					if gt[i].F.ID != wt[i].F.ID || gt[i].Axis != wt[i].Axis {
						t.Fatalf("orient %v %v node %v triple %d differs", o, mod, c, i)
					}
				}
			}
		}
	}
	for trial := 0; trial < 24; trial++ {
		s := mesh.C(rng.Intn(m.Width()), rng.Intn(m.Height()))
		d := mesh.C(rng.Intn(m.Width()), rng.Intn(m.Height()))
		for _, algo := range []Algo{Ecube, RB1, RB2, RB3} {
			rg := Route(got, algo, s, d, Options{})
			rw := Route(want, algo, s, d, Options{})
			if rg.Delivered != rw.Delivered || len(rg.Path) != len(rw.Path) {
				t.Fatalf("%v %v->%v: delivered=%v hops=%d, want %v/%d",
					algo, s, d, rg.Delivered, len(rg.Path), rw.Delivered, len(rw.Path))
			}
			for i := range rw.Path {
				if rg.Path[i] != rw.Path[i] {
					t.Fatalf("%v %v->%v: path diverges at hop %d: %v vs %v",
						algo, s, d, i, rg.Path[i], rw.Path[i])
				}
			}
		}
	}
}

// TestRebuildFromMatchesPrecompute is the rebuild-equivalence property
// test: random fault sequences, each commit applied both by RebuildFrom
// and by a from-scratch NewAnalysis, compared exhaustively, under the
// one border rule (a missing neighbour reads safe), kept as its own
// subtest.
func TestRebuildFromMatchesPrecompute(t *testing.T) {
	t.Run("border-safe", func(t *testing.T) {
		rng := rand.New(rand.NewSource(0x51ab))
		for trial := 0; trial < 5; trial++ {
			w, h := 6+rng.Intn(11), 6+rng.Intn(11)
			m := mesh.New(w, h)
			work := fault.NewSet(m)
			for n := rng.Intn(5); n > 0; n-- {
				work.Add(mesh.C(rng.Intn(w), rng.Intn(h)))
			}
			cur := NewAnalysis(work.Clone())
			for step := 0; step < 6; step++ {
				var adds, repairs []mesh.Coord
				seen := map[mesh.Coord]bool{}
				for n := 1 + rng.Intn(4); n > 0; n-- {
					c := mesh.C(rng.Intn(w), rng.Intn(h))
					if seen[c] {
						continue
					}
					seen[c] = true
					if work.Faulty(c) {
						work.Remove(c)
						repairs = append(repairs, c)
					} else {
						work.Add(c)
						adds = append(adds, c)
					}
				}
				frozen := work.Clone()
				cur = RebuildFrom(cur, frozen, adds, repairs)
				ref := NewAnalysis(frozen)
				analysesEqual(t, rng, cur, ref)
			}
		}
	})
}
