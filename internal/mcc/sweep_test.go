package mcc

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

// TestSweepMatchesMonotoneReach checks the column-interval sweep against
// the per-cell monotoneReach oracle in both of its forms: over a chain of
// 1-6 components of an extracted set (the certification findAxis runs),
// and over every component through the set's column index (FindSequence's
// safe-path shortcut), where the oracle's obstacle is g.Unsafe. One
// sweeper serves every instance, so stale buffer contents would show.
func TestSweepMatchesMonotoneReach(t *testing.T) {
	const want = 40000
	r := rand.New(rand.NewSource(2207))
	var sw sweeper
	chains, pairs := 0, 0
	var verdicts [2][2]int // [form][reached]
	tally := func(form int, got bool) {
		if got {
			verdicts[form][1]++
		} else {
			verdicts[form][0]++
		}
	}
	for chains < want || pairs < want {
		n := 6 + r.Intn(40)
		m := mesh.Square(n)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 1+r.Intn(n*n/4), r))
		s := Extract(g)
		all := s.All()
		if len(all) == 0 {
			continue
		}
		for i := 0; i < 100; i++ {
			u, d := randomPair(r, n)
			got := sw.reach(u, d, nil, s.lines[AxisY])
			if oracle := monotoneReach(u, d, g.Unsafe); got != oracle {
				t.Fatalf("%dx%d field, all components, %v->%v: sweep %v, oracle %v", n, n, u, d, got, oracle)
			}
			tally(0, got)
			pairs++

			chain := make([]*MCC, 1+r.Intn(min(6, len(all))))
			for j, k := range r.Perm(len(all))[:len(chain)] {
				chain[j] = all[k]
			}
			// Endpoints near the chain, so that it blocks often.
			box := chain[0].Bounds()
			for _, f := range chain[1:] {
				box = mesh.Rect{X0: min(box.X0, f.X0), Y0: min(box.Y0, f.Y0), X1: max(box.X1, f.X1), Y1: max(box.Y1, f.Y1)}
			}
			u, d = randomPairIn(r, n, box)
			got = sw.reach(u, d, chain, nil)
			onChain := func(c mesh.Coord) bool {
				for _, f := range chain {
					if f.Contains(c) {
						return true
					}
				}
				return false
			}
			if oracle := monotoneReach(u, d, onChain); got != oracle {
				t.Fatalf("%dx%d field, chain %v, %v->%v: sweep %v, oracle %v", n, n, chain, u, d, got, oracle)
			}
			if blocks := (&Sequence{Chain: chain}).Blocks(u, d); blocks == got {
				t.Fatalf("chain %v, %v->%v: Blocks %v disagrees with the sweep's reach %v", chain, u, d, blocks, got)
			}
			tally(1, got)
			chains++
		}
	}
	t.Logf("all-component pairs: %d blocked, %d reached; chain instances: %d blocked, %d reached",
		verdicts[0][0], verdicts[0][1], verdicts[1][0], verdicts[1][1])
	for form, v := range verdicts {
		if v[0] < want/20 || v[1] < want/20 {
			t.Errorf("form %d exercised %d blocked and %d reached instances; want both >= %d", form, v[0], v[1], want/20)
		}
	}
}

// randomPair draws endpoints on an n x n mesh, dominated (u.X <= d.X,
// u.Y <= d.Y) in all but about one draw in ten.
func randomPair(r *rand.Rand, n int) (u, d mesh.Coord) {
	u, d = mesh.C(r.Intn(n), r.Intn(n)), mesh.C(r.Intn(n), r.Intn(n))
	if r.Intn(10) > 0 {
		u, d = mesh.C(min(u.X, d.X), min(u.Y, d.Y)), mesh.C(max(u.X, d.X), max(u.Y, d.Y))
	}
	return u, d
}

// randomPairIn draws a dominated pair inside box grown by two nodes,
// clipped to the n x n mesh.
func randomPairIn(r *rand.Rand, n int, box mesh.Rect) (u, d mesh.Coord) {
	x0, y0 := max(box.X0-2, 0), max(box.Y0-2, 0)
	x1, y1 := min(box.X1+2, n-1), min(box.Y1+2, n-1)
	u = mesh.C(x0+r.Intn(x1-x0+1), y0+r.Intn(y1-y0+1))
	d = mesh.C(x0+r.Intn(x1-x0+1), y0+r.Intn(y1-y0+1))
	return mesh.C(min(u.X, d.X), min(u.Y, d.Y)), mesh.C(max(u.X, d.X), max(u.Y, d.Y))
}

// TestShortcutExactAtBenchmarkScale checks, on 100x100 fields with 1500
// uniform faults (the benchmark fixture's size and density), the fact
// FindSequence's safe-path shortcut rests on: whenever a monotone path
// over safe nodes joins u to d, findAxis certifies no chain on either
// axis. The property tests stop at 45x45 fields, where the search
// completes few candidate chains; here it completes and rejects many.
func TestShortcutExactAtBenchmarkScale(t *testing.T) {
	fields, perField := 8, 250
	if testing.Short() {
		fields, perField = 2, 100
	}
	r := rand.New(rand.NewSource(1500))
	var dst Sequence
	safePaths, rejected := 0, 0
	for field := 0; field < fields; field++ {
		m := mesh.Square(100)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 1500, r))
		s := Extract(g)
		sc := s.seqScratchFor()
		for i := 0; i < perField; i++ {
			u, d := mesh.C(r.Intn(100), r.Intn(100)), mesh.C(r.Intn(100), r.Intn(100))
			u, d = mesh.C(min(u.X, d.X), min(u.Y, d.Y)), mesh.C(max(u.X, d.X), max(u.Y, d.Y))
			if !monotoneReach(u, d, g.Unsafe) {
				continue
			}
			safePaths++
			for _, a := range Axes {
				if sc.findAxis(s, u, d, a, &dst) {
					t.Fatalf("field %d: %v->%v has a safe monotone path, yet findAxis along %v certified %v",
						field, u, d, a, dst.Chain)
				}
				rejected += seqCandidateBudget - sc.budget
			}
			if s.FindSequence(u, d, &dst) {
				t.Fatalf("field %d: FindSequence found %v for Manhattan pair %v->%v", field, dst.Chain, u, d)
			}
		}
		seqScratchPool.Put(sc)
	}
	t.Logf("%d pairs with a safe monotone path; findAxis rejected %d complete candidate chains on them", safePaths, rejected)
	if safePaths < fields*perField/4 || rejected == 0 {
		t.Errorf("only %d pairs had a safe monotone path, and %d candidate chains were rejected", safePaths, rejected)
	}
}
