package mcc

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

func extract(t *testing.T, m mesh.Mesh, faults ...mesh.Coord) *Set {
	t.Helper()
	g := labeling.Compute(fault.FromCoords(m, faults...))
	s := Extract(g)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s
}

// monotoneReach is the brute-force oracle: can a +X/+Y path go from u to d
// avoiding cells where obstacle() is true?
func monotoneReach(u, d mesh.Coord, obstacle func(mesh.Coord) bool) bool {
	if u.X > d.X || u.Y > d.Y || obstacle(u) || obstacle(d) {
		return false
	}
	w, h := d.X-u.X+1, d.Y-u.Y+1
	reach := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := mesh.C(u.X+x, u.Y+y)
			if obstacle(c) {
				continue
			}
			switch {
			case x == 0 && y == 0:
				reach[y*w+x] = true
			case x == 0:
				reach[y*w+x] = reach[(y-1)*w+x]
			case y == 0:
				reach[y*w+x] = reach[y*w+x-1]
			default:
				reach[y*w+x] = reach[y*w+x-1] || reach[(y-1)*w+x]
			}
		}
	}
	return reach[(h-1)*w+w-1]
}

func TestExtractSingleFault(t *testing.T) {
	s := extract(t, mesh.Square(10), mesh.C(4, 5))
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	f := s.All()[0]
	if f.Cells != 1 || f.X0 != 4 || f.X1 != 4 || f.Y0 != 5 || f.Y1 != 5 {
		t.Fatalf("bad shape: %+v", f)
	}
	if f.Corner() != mesh.C(3, 4) || f.Opposite() != mesh.C(5, 6) {
		t.Errorf("corners: %v %v", f.Corner(), f.Opposite())
	}
	if !f.Contains(mesh.C(4, 5)) || f.Contains(mesh.C(4, 6)) {
		t.Error("Contains wrong")
	}
	if s.At(mesh.C(4, 5)) != f || s.At(mesh.C(0, 0)) != nil || s.At(mesh.C(-1, 2)) != nil {
		t.Error("At lookup wrong")
	}
}

func TestExtractAntiDiagonalFillsSquare(t *testing.T) {
	// (4,6),(5,5),(6,4) closes to the full 3x3 square [4:6, 4:6].
	s := extract(t, mesh.Square(12), mesh.C(4, 6), mesh.C(5, 5), mesh.C(6, 4))
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 merged component", s.Len())
	}
	f := s.All()[0]
	if f.Cells != 9 || f.Bounds() != (mesh.Rect{X0: 4, Y0: 4, X1: 6, Y1: 6}) {
		t.Fatalf("shape: cells=%d bounds=%v", f.Cells, f.Bounds())
	}
	for i := range f.ColLo {
		if f.ColLo[i] != 4 || f.ColHi[i] != 6 {
			t.Errorf("column %d interval [%d,%d], want [4,6]", f.X0+i, f.ColLo[i], f.ColHi[i])
		}
	}
	if f.Corner() != mesh.C(3, 3) || f.Opposite() != mesh.C(7, 7) {
		t.Errorf("corners %v %v", f.Corner(), f.Opposite())
	}
}

func TestExtractDiagonalStaysSeparate(t *testing.T) {
	s := extract(t, mesh.Square(12), mesh.C(4, 4), mesh.C(5, 5), mesh.C(6, 6))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (diagonals must not merge)", s.Len())
	}
	// IDs assigned in row-major order of SW cells.
	if s.All()[0].Bounds() != (mesh.Rect{X0: 4, Y0: 4, X1: 4, Y1: 4}) {
		t.Error("ID order not row-major")
	}
}

func TestExtractStaircase(t *testing.T) {
	// L-fill case: (5,4),(5,5),(4,6) closes to the 2x3 rectangle.
	s := extract(t, mesh.Square(12), mesh.C(5, 4), mesh.C(5, 5), mesh.C(4, 6))
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	f := s.All()[0]
	if f.Cells != 6 || f.Bounds() != (mesh.Rect{X0: 4, Y0: 4, X1: 5, Y1: 6}) {
		t.Fatalf("cells=%d bounds=%v", f.Cells, f.Bounds())
	}
	// Ascending staircase: (5,5),(6,5),(6,6),(6,7) from faults (5,5),(6,6),(6,7).
	s2 := extract(t, mesh.Square(12), mesh.C(5, 5), mesh.C(6, 6), mesh.C(6, 7))
	// (6,5)? -X (5,5) faulty, -Y (6,4) safe: not CR. (5,6)? +X (6,6) faulty,
	// +Y (5,7)? safe: not useless. So (5,5) and {(6,6),(6,7)} stay separate.
	if s2.Len() != 2 {
		t.Fatalf("staircase Len = %d, want 2", s2.Len())
	}
}

func TestRowProfilesTransposeColumns(t *testing.T) {
	s := extract(t, mesh.Square(12), mesh.C(5, 4), mesh.C(5, 5), mesh.C(4, 6))
	f := s.All()[0]
	// Rectangle [4:5, 4:6]: rows 4..6 each span columns 4..5... except the
	// closure fills the whole rectangle, so every row interval is [4,5].
	for i := range f.RowLo {
		if f.RowLo[i] != 4 || f.RowHi[i] != 5 {
			t.Errorf("row %d interval [%d,%d]", f.Y0+i, f.RowLo[i], f.RowHi[i])
		}
	}
}

func TestInvariantsOnRandomFields(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		m := mesh.Square(24)
		n := r.Intn(140)
		g := labeling.Compute(fault.Uniform{}.Generate(m, n, r))
		s := Extract(g)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d (%d faults): %v", trial, n, err)
		}
		// Every unsafe node belongs to exactly one component; totals match.
		total := 0
		for _, f := range s.All() {
			total += f.Cells
		}
		if total != g.UnsafeCount() {
			t.Fatalf("trial %d: cells %d != unsafe %d", trial, total, g.UnsafeCount())
		}
		// At() agrees with Contains().
		m.EachNode(func(c mesh.Coord) {
			f := s.At(c)
			if (f != nil) != g.Unsafe(c) {
				t.Fatalf("trial %d: At(%v)=%v but unsafe=%v", trial, c, f, g.Unsafe(c))
			}
			if f != nil && !f.Contains(c) {
				t.Fatalf("trial %d: At(%v) returns non-containing component", trial, c)
			}
		})
	}
}

func TestColumnRowIndexOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := mesh.Square(20)
	g := labeling.Compute(fault.Uniform{}.Generate(m, 60, r))
	s := Extract(g)
	for _, a := range Axes {
		for p := 0; p < 20; p++ {
			list := s.Along(a, p)
			for i := 1; i < len(list); i++ {
				f0, lo0, _ := list[i-1].Profile(a)
				f1, lo1, _ := list[i].Profile(a)
				if lo0[p-f0] > lo1[p-f1] {
					t.Fatalf("line %d along %v: index out of order", p, a)
				}
			}
		}
	}
	if s.Along(AxisY, -1) != nil || s.Along(AxisX, 99) != nil {
		t.Error("out-of-range index queries must return nil")
	}
}

// The central region theorem: for safe u dominated by safe d, a single
// component blocks every monotone path iff the region-pair predicate holds,
// iff the direct pass-below/pass-above predicate holds.
func TestBlockingPredicateEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		m := mesh.Square(16)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 4+r.Intn(30), r))
		s := Extract(g)
		for _, f := range s.All() {
			for i := 0; i < 60; i++ {
				u := mesh.C(r.Intn(16), r.Intn(16))
				d := mesh.C(u.X+r.Intn(16-u.X), u.Y+r.Intn(16-u.Y))
				if f.Contains(u) || f.Contains(d) {
					continue
				}
				dp := !monotoneReach(u, d, f.Contains)
				direct := f.BlocksDirect(u, d)
				regions := f.BlocksManhattan(u, d)
				if dp != direct || dp != regions {
					t.Fatalf("trial %d %v u=%v d=%v: dp=%v direct=%v regions=%v",
						trial, f, u, d, dp, direct, regions)
				}
			}
		}
	}
}

// The no-free-gap pruning rule used by the chain search: when a free
// position lies strictly between consecutive spans, a monotone path below
// the first component always escapes above the second through it. Verify
// against the DP: any component pair with a free column gap never blocks a
// below-to-above crossing on its own.
func TestFreeGapPairNeverBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	checked := 0
	for trial := 0; trial < 120 && checked < 400; trial++ {
		m := mesh.Square(14)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 3+r.Intn(20), r))
		s := Extract(g)
		all := s.All()
		for ai := range all {
			for bi := range all {
				a, b := all[ai], all[bi]
				if a == b || b.X0 <= a.X1+1 {
					continue // no free column gap
				}
				// Start below a in a's span, end above b in b's span.
				u := mesh.C(a.X0, a.ColLo[0]-1)
				d := mesh.C(b.X1, b.ColHi[len(b.ColHi)-1]+1)
				if u.Y < 0 || d.Y >= 14 || u.X > d.X || u.Y > d.Y {
					continue
				}
				obstacle := func(c mesh.Coord) bool { return a.Contains(c) || b.Contains(c) }
				if obstacle(u) || obstacle(d) {
					continue
				}
				if !monotoneReach(u, d, obstacle) {
					t.Fatalf("trial %d: pair %v %v with free gap blocked %v->%v",
						trial, a, b, u, d)
				}
				checked++
			}
		}
	}
	if checked < 50 {
		t.Skipf("only %d gap pairs exercised", checked)
	}
}

// The headline geometric property: FindSequence returns a sequence exactly
// when no Manhattan path over safe nodes exists.
func TestFindSequenceIffManhattanBlocked(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	blockedCases := 0
	for trial := 0; trial < 60; trial++ {
		m := mesh.Square(18)
		g := labeling.Compute(fault.Uniform{}.Generate(m, 10+r.Intn(50), r))
		s := Extract(g)
		for i := 0; i < 40; i++ {
			u := mesh.C(r.Intn(18), r.Intn(18))
			d := mesh.C(u.X+r.Intn(18-u.X), u.Y+r.Intn(18-u.Y))
			if !g.Safe(u) || !g.Safe(d) {
				continue
			}
			dpBlocked := !monotoneReach(u, d, g.Unsafe)
			seq := s.FindSequence(u, d)
			if dpBlocked != (seq != nil) {
				t.Fatalf("trial %d u=%v d=%v: dpBlocked=%v sequence=%v",
					trial, u, d, dpBlocked, seq)
			}
			if seq != nil {
				blockedCases++
				// A claimed sequence must itself block: DP over its cells only.
				chainObstacle := func(c mesh.Coord) bool {
					for _, f := range seq.Chain {
						if f.Contains(c) {
							return true
						}
					}
					return false
				}
				if monotoneReach(u, d, chainObstacle) {
					t.Fatalf("trial %d: sequence %v does not actually block %v->%v",
						trial, seq.Chain, u, d)
				}
			}
		}
	}
	if blockedCases < 20 {
		t.Errorf("only %d blocked cases exercised; increase fault density", blockedCases)
	}
}

// MCC-minimality: for safe endpoints, a Manhattan path over non-faulty
// nodes exists iff one over safe nodes does. (Unsafe non-faulty nodes are
// never needed for minimal routing — the defining property of the model.)
func TestSafeManhattanEqualsFaultyManhattan(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		m := mesh.Square(18)
		f := fault.Uniform{}.Generate(m, 10+r.Intn(50), r)
		g := labeling.Compute(f)
		for i := 0; i < 40; i++ {
			u := mesh.C(r.Intn(18), r.Intn(18))
			d := mesh.C(u.X+r.Intn(18-u.X), u.Y+r.Intn(18-u.Y))
			if !g.Safe(u) || !g.Safe(d) {
				continue
			}
			overFaulty := monotoneReach(u, d, f.Faulty)
			overSafe := monotoneReach(u, d, g.Unsafe)
			if overFaulty != overSafe {
				t.Fatalf("trial %d u=%v d=%v: faulty-DP=%v safe-DP=%v",
					trial, u, d, overFaulty, overSafe)
			}
		}
	}
}

func TestSequenceCorners(t *testing.T) {
	// Two interlocked single cells (5,5) and (6,6) form a 2-chain for
	// u=(5,4), d=(6,7).
	s := extract(t, mesh.Square(12), mesh.C(5, 5), mesh.C(6, 6))
	seq := s.FindSequence(mesh.C(5, 4), mesh.C(6, 7))
	if seq == nil || len(seq.Chain) != 2 || seq.Axis != AxisY {
		t.Fatalf("sequence = %+v", seq)
	}
}

func TestTypeIISequence(t *testing.T) {
	// Vertical wall with interlocked cells blocks +X: (5,5) and (6,6) for
	// u=(4,5)... that's the same diagonal; build a clear type-II case:
	// cells (5,5),(5,6) as one column component; u west, d east.
	s := extract(t, mesh.Square(12), mesh.C(5, 5), mesh.C(5, 6))
	seq := s.FindSequence(mesh.C(4, 5), mesh.C(6, 6))
	if seq == nil || seq.Axis != AxisX {
		t.Fatalf("want type-II sequence, got %+v", seq)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := extract(t, mesh.Square(10), mesh.C(4, 4), mesh.C(4, 5))
	f := s.All()[0]
	f.ColLo[0] = 9 // corrupt: empty interval
	if err := f.Validate(); err == nil {
		t.Error("corrupted profile passed validation")
	}
}
