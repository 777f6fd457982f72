package info

import (
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// This file contains the propagation walks. All of them derive their next
// hop from the carried shape and local neighbor status — computations a
// real node could perform — and every hop is charged to the store's
// message/participant accounting.
//
// Each walk is written once, in line/depth coordinates along an mcc.Axis
// (canonical +X/+Y orientation throughout). Along AxisY a line is a column
// and depth is y, so "down" is south and "back" is west; along AxisX a
// line is a row and depth is x, so "down" is west and "back" is south.
// The axis's boundaries carry its triple: the -X and +X boundaries carry
// (F, R_Y, R'_Y), the -Y and +Y boundaries carry (F, R_X, R'_X).
//
//   - contour along a: c, up the component's back side (the lines before
//     its first), then forward along its high staircase (climbing at each
//     rise), ending at c'. Along AxisY this is the NW contour, the
//     "clockwise" identification message path; along AxisX it is the SE
//     contour, the "counter-clockwise" one.
//   - minus boundary: down from c along c's line; at an intersected
//     component g, back along g's high staircase and down g's back side to
//     g's corner (joining g's minus boundary), then down again. Along
//     AxisY this is the -X boundary, south along x = x_c.
//   - plus boundary: down from c' along c''s line; at g, forward along g's
//     high staircase to g's opposite corner (joining g's plus boundary),
//     then down again. Along AxisY this is the +X boundary, south along
//     x = x_{c'}.
//
// Contour positions can be occupied by yet another component in dense
// fields; the walk then deposits nothing at that position but continues,
// as if the message were relayed around the obstruction: the hop is
// charged as one link crossing, and the unsafe position never counts as a
// participant (see assemble).

// step visits c (over a link when hop is set) and deposits the walking
// component's triple along a there. Deposits skip unsafe positions, so a
// walk may step onto an intersected component's cell and then turn.
func (b *builder) step(c mesh.Coord, hop bool, a mcc.Axis) {
	b.visit(c, hop)
	b.deposit(c, a)
}

// identificationWalks models Algorithm 1 steps 1-2: two messages walk the
// edge ring c -> c' and the identified shape returns c' -> c. Four contour
// traversals are charged; no information is deposited (the boundary lines
// do that).
func (b *builder) identificationWalks(f *mcc.MCC) {
	nw := contour(f, mcc.AxisY)
	se := contour(f, mcc.AxisX)
	for _, pass := range [][]mesh.Coord{nw, se, nw, se} {
		for i, c := range pass {
			b.visit(c, i > 0)
		}
	}
}

// contour returns the ring positions from the initialization corner up
// the component's back side along a and forward along its high staircase
// to the opposite corner.
func contour(f *mcc.MCC, a mcc.Axis) []mesh.Coord {
	first, lo, hi := f.Profile(a)
	var pts []mesh.Coord
	// Back side: from c up past the high end of the first line.
	for q := lo[0] - 1; q <= hi[0]+1; q++ {
		pts = append(pts, a.C(first-1, q))
	}
	// High staircase: climb within the previous line, then step forward.
	q := hi[0] + 1
	for p := first; p < first+len(hi); p++ {
		for ; q < hi[p-first]+1; q++ {
			pts = append(pts, a.C(p-1, q+1))
		}
		pts = append(pts, a.C(p, q))
	}
	// Final step forward to the opposite corner.
	return append(pts, a.C(first+len(hi), q))
}

// boundaryMinus builds the minus boundary of f along a (Algorithm 1 step 3
// for the axis's triple): down from the corner c along its line, joining
// the minus boundary of every intersected component. With b3 set
// (Algorithm 6), the walk splits at each intersection — the second branch
// joins the intersected component's plus boundary — and records
// succeeding-MCC relations at the first one. It returns the components
// whose boundaries were joined (input to B2's flood).
func (b *builder) boundaryMinus(f *mcc.MCC, a mcc.Axis, b3 bool) []*mcc.MCC {
	c := f.Corner()
	if !b.m.In(c) {
		return nil // component touches the mesh's back or bottom border: no line
	}
	b.step(c, false, a)
	p, q := a.Split(c)
	var joined []*mcc.MCC
	first := true
	for {
		q--
		if q < 0 {
			return joined
		}
		pos := a.C(p, q)
		b.step(pos, true, a)
		g := b.set.At(pos)
		b.readComp(g)
		if g == nil {
			continue
		}
		// Intersection: under Algorithm 6 the first intersection records a
		// succeeding-MCC relation when the intersected component is a chain
		// predecessor of f; both shapes are known at the intersection, so
		// the test is locally computable (see mcc.IsSuccessor for why the
		// paper's literal corner inequality is replaced by the structural
		// test).
		if b3 && first {
			for _, ra := range mcc.Axes {
				if b.set.IsSuccessor(ra, g, f) {
					b.addRelation(g, ra)
				}
			}
		}
		first = false
		joined = append(joined, g)
		if b3 {
			// Algorithm 6 step 3: the split branch carries f's shape
			// around g the other way and on as a plus boundary.
			if tp, tq, ok := b.turnPlus(g, a, p); ok {
				b.plusFrom(a, tp, tq)
			}
		}
		// Join g's minus boundary: back along g's top, down its back side.
		var ok bool
		if p, q, ok = b.traverseMinus(g, a, p); !ok {
			return joined
		}
	}
}

// traverseMinus walks from the top of component g on line from backward
// along g's high staircase and down its back side to g's corner,
// depositing the triple along a. It returns the corner, or ok=false when
// the walk left the mesh.
func (b *builder) traverseMinus(g *mcc.MCC, a mcc.Axis, from int) (p, q int, ok bool) {
	first, lo, hi := g.Profile(a)
	q = hi[from-first] + 1
	// (from, q) was already visited as the intersection approach.
	for cp := from - 1; cp >= first-1; cp-- {
		if cp >= first {
			// Descend to this line's top height, then step back.
			for ; q > hi[cp-first]+1; q-- {
				b.step(a.C(cp+1, q-1), true, a)
			}
		}
		if cp < 0 {
			return 0, 0, false
		}
		b.step(a.C(cp, q), true, a)
	}
	// Down the back side to the corner.
	p = first - 1
	for ; q > lo[0]-1; q-- {
		b.step(a.C(p, q-1), true, a)
	}
	if q < 0 {
		return 0, 0, false
	}
	return p, q, true
}

// turnPlus walks from the top of component g on line from forward along
// g's high staircase to the line of g's opposite corner, depositing the
// triple along a, and returns that position, or ok=false when the line is
// off the mesh. The plus boundary continues down from there.
func (b *builder) turnPlus(g *mcc.MCC, a mcc.Axis, from int) (p, q int, ok bool) {
	first, _, hi := g.Profile(a)
	q = hi[from-first] + 1
	for p = from + 1; p < first+len(hi); p++ {
		// Climb to the next line's top height, then step forward.
		for ; q < hi[p-first]+1; q++ {
			b.step(a.C(p-1, q+1), true, a)
		}
		b.step(a.C(p, q), true, a)
	}
	if p >= a.Lines(b.m) {
		return 0, 0, false
	}
	b.step(a.C(p, q), true, a)
	return p, q, true
}

// boundaryPlus builds the plus boundary of f along a (Algorithm 4 step 2):
// down from the opposite corner along its line, always joining the plus
// boundary of intersected components at their opposite corners. Returns
// the joined components.
func (b *builder) boundaryPlus(f *mcc.MCC, a mcc.Axis) []*mcc.MCC {
	c := f.Opposite()
	if !b.m.In(c) {
		return nil
	}
	b.step(c, false, a)
	p, q := a.Split(c)
	return b.plusFrom(a, p, q)
}

// plusFrom continues a plus boundary along a down from line p, depth q.
func (b *builder) plusFrom(a mcc.Axis, p, q int) []*mcc.MCC {
	var joined []*mcc.MCC
	for {
		q--
		if q < 0 {
			return joined
		}
		pos := a.C(p, q)
		b.step(pos, true, a)
		g := b.set.At(pos)
		b.readComp(g)
		if g == nil {
			continue
		}
		joined = append(joined, g)
		var ok bool
		if p, q, ok = b.turnPlus(g, a, p); !ok {
			return joined
		}
	}
}
