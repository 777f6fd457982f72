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
// Geometry conventions (canonical +X/+Y orientation):
//
//   - NW contour: c, up the component's west side, east along the top
//     staircase (climbing at each rise), ending at c'. The "clockwise"
//     identification message path.
//   - SE contour: c, east along the bottom staircase, up the east side,
//     ending at c'. The "counter-clockwise" path.
//   - -X boundary: south from c along x = x_c; at an intersected component
//     g, westward along g's top staircase and down g's west side to g's
//     corner (joining g's -X boundary), then south again.
//   - +X boundary: south from c' along x = x_{c'}; at g, eastward along
//     g's top staircase to g's opposite corner (joining g's +X boundary),
//     then south again.
//   - -Y/+Y boundaries: exact transposes, west along y = y_c / y = y_{c'}.
//
// Contour positions can be occupied by yet another component in dense
// fields; the walk then deposits nothing at that position but continues,
// as if the message were relayed around the obstruction: the hop is
// charged as one link crossing, and the unsafe position never counts as a
// participant (see visit).

// identificationWalks models Algorithm 1 steps 1-2: two messages walk the
// edge ring c -> c' and the identified shape returns c' -> c. Four contour
// traversals are charged; no information is deposited (the boundary lines
// do that).
func (b *builder) identificationWalks(f *mcc.MCC) {
	nw := contourNW(f)
	se := contourSE(f)
	for _, pass := range [][]mesh.Coord{nw, se, nw, se} {
		for i, c := range pass {
			b.visit(c, i > 0)
		}
	}
}

// contourNW returns the ring positions from the initialization corner up
// the west side and along the top staircase to the opposite corner.
func contourNW(f *mcc.MCC) []mesh.Coord {
	var pts []mesh.Coord
	x := f.X0 - 1
	// West side: from c up to the top of the first column.
	for y := f.ColLo[0] - 1; y <= f.ColHi[0]+1; y++ {
		pts = append(pts, mesh.C(x, y))
	}
	y := f.ColHi[0] + 1
	// Top staircase: climb within the current column, then step east.
	for cx := f.X0; cx <= f.X1; cx++ {
		top := f.ColHi[cx-f.X0] + 1
		for ; y < top; y++ {
			pts = append(pts, mesh.C(cx-1, y+1))
		}
		pts = append(pts, mesh.C(cx, y))
	}
	// Final step east to the opposite corner.
	pts = append(pts, mesh.C(f.X1+1, y))
	return pts
}

// contourSE returns the ring positions from the initialization corner east
// along the bottom staircase and up the east side to the opposite corner.
func contourSE(f *mcc.MCC) []mesh.Coord {
	var pts []mesh.Coord
	y := f.ColLo[0] - 1
	pts = append(pts, mesh.C(f.X0-1, y))
	// Bottom staircase: step east, then climb to the next column's bottom.
	for cx := f.X0; cx <= f.X1; cx++ {
		pts = append(pts, mesh.C(cx, y))
		for bottom := f.ColLo[cx-f.X0] - 1; y < bottom; y++ {
			pts = append(pts, mesh.C(cx, y+1))
		}
	}
	// East side: step east, then climb to the opposite corner.
	x := f.X1 + 1
	pts = append(pts, mesh.C(x, y))
	for ; y <= f.ColHi[f.X1-f.X0]; y++ {
		pts = append(pts, mesh.C(x, y+1))
	}
	return pts
}

// boundaryMinusX builds the -X boundary of f (Algorithm 1 step 3 for the
// (F, R_Y, R'_Y) triple): south along x = x_c, joining the -X boundary of
// every intersected component. With b3 set (Algorithm 6), the walk splits
// at each intersection — the second branch joins the intersected
// component's +X boundary — and records succeeding-MCC relations for
// type-II sequences. It returns the components whose boundaries were
// joined (input to B2's flood).
func (b *builder) boundaryMinusX(f *mcc.MCC, b3 bool) []*mcc.MCC {
	var joined []*mcc.MCC
	k := RYMinusX
	c := f.Corner()
	if !b.m.In(c) {
		return nil // component touches the west or south border: no line
	}
	b.visit(c, false)
	b.deposit(c, k)
	x, y := c.X, c.Y
	first := true
	for {
		y--
		if y < 0 {
			return joined
		}
		pos := mesh.C(x, y)
		b.visit(pos, true)
		g := b.set.At(pos)
		b.readComp(g)
		if g == nil {
			b.deposit(pos, k)
			continue
		}
		// Intersection: under Algorithm 6 the first intersection records a
		// succeeding-MCC relation when the intersected component is a chain
		// predecessor of f; both shapes are known at the intersection, so
		// the test is locally computable (see mcc.IsSuccessorY for why the
		// paper's literal corner inequality is replaced by the structural
		// test).
		if b3 && first {
			if b.set.IsSuccessorY(g, f) {
				b.addRelation(g, false)
			}
			if b.set.IsSuccessorX(g, f) {
				b.addRelation(g, true)
			}
		}
		first = false
		joined = append(joined, g)
		if b3 {
			b.splitJoinPlusX(f, g, x)
		}
		// Join g's -X boundary: west along g's top, down its west side.
		nx, ny, ok := b.traverseTopWest(k, g, x)
		if !ok {
			return joined
		}
		x, y = nx, ny
	}
}

// traverseTopWest walks from the top of component g at column fromX
// westward along g's top staircase and down its west side to g's corner,
// depositing kind k. It returns the corner position, or ok=false when the walk
// left the mesh.
func (b *builder) traverseTopWest(k Kind, g *mcc.MCC, fromX int) (x, y int, ok bool) {
	y = g.ColHi[fromX-g.X0] + 1
	// (fromX, y) was already visited as the intersection approach.
	for cx := fromX - 1; cx >= g.X0-1; cx-- {
		if cx >= g.X0 {
			// Descend to this column's top height, then step west.
			for ; y > g.ColHi[cx-g.X0]+1; y-- {
				b.visit(mesh.C(cx+1, y-1), true)
				b.deposit(mesh.C(cx+1, y-1), k)
			}
		}
		if cx < 0 {
			return 0, 0, false
		}
		b.visit(mesh.C(cx, y), true)
		b.deposit(mesh.C(cx, y), k)
	}
	// Down the west side to the corner.
	x = g.X0 - 1
	for ; y > g.ColLo[0]-1; y-- {
		b.visit(mesh.C(x, y-1), true)
		b.deposit(mesh.C(x, y-1), k)
	}
	if y < 0 {
		return 0, 0, false
	}
	return x, y, true
}

// splitJoinPlusX is Algorithm 6 step 3: the split branch that carries f's
// shape around the intersected component g the other way — east along g's
// top staircase to g's opposite corner — and then continues as a +X
// boundary south along x = x_{g'}.
func (b *builder) splitJoinPlusX(f, g *mcc.MCC, fromX int) {
	k := RYPlusX
	y := g.ColHi[fromX-g.X0] + 1
	for cx := fromX + 1; cx <= g.X1; cx++ {
		// Climb to the next column's top height, then step east.
		for ; y < g.ColHi[cx-g.X0]+1; y++ {
			b.visit(mesh.C(cx-1, y+1), true)
			b.deposit(mesh.C(cx-1, y+1), k)
		}
		b.visit(mesh.C(cx, y), true)
		b.deposit(mesh.C(cx, y), k)
	}
	x := g.X1 + 1
	if x >= b.m.Width() {
		return
	}
	b.visit(mesh.C(x, y), true)
	b.deposit(mesh.C(x, y), k)
	b.plusXFrom(f, x, y)
}

// boundaryPlusX builds the +X boundary of f (Algorithm 4 step 2): south
// from the opposite corner along x = x_{c'}, always joining the +X
// boundary of intersected components at their opposite corners. Returns the
// joined components.
func (b *builder) boundaryPlusX(f *mcc.MCC) []*mcc.MCC {
	c := f.Opposite()
	if !b.m.In(c) {
		return nil
	}
	b.visit(c, false)
	b.deposit(c, RYPlusX)
	return b.plusXFrom(f, c.X, c.Y)
}

// plusXFrom continues a +X boundary of f southward from (x, y).
func (b *builder) plusXFrom(f *mcc.MCC, x, y int) []*mcc.MCC {
	var joined []*mcc.MCC
	k := RYPlusX
	for {
		y--
		if y < 0 {
			return joined
		}
		pos := mesh.C(x, y)
		b.visit(pos, true)
		g := b.set.At(pos)
		b.readComp(g)
		if g == nil {
			b.deposit(pos, k)
			continue
		}
		joined = append(joined, g)
		// Left turn: east along g's top staircase to its opposite corner.
		cy := g.ColHi[x-g.X0] + 1
		for cx := x + 1; cx <= g.X1; cx++ {
			for ; cy < g.ColHi[cx-g.X0]+1; cy++ {
				b.visit(mesh.C(cx-1, cy+1), true)
				b.deposit(mesh.C(cx-1, cy+1), k)
			}
			b.visit(mesh.C(cx, cy), true)
			b.deposit(mesh.C(cx, cy), k)
		}
		x = g.X1 + 1
		if x >= b.m.Width() {
			return joined
		}
		y = cy
		b.visit(mesh.C(x, y), true)
		b.deposit(mesh.C(x, y), k)
	}
}

// boundaryMinusY is the transpose of boundaryMinusX: the -Y boundary of f
// carries (F, R_X, R'_X) west along y = y_c, joining the -Y boundaries of
// intersected components (south along their east side, west along their
// bottom). With b3 set it splits (branch joins the +Y boundary) and records
// type-I relations.
func (b *builder) boundaryMinusY(f *mcc.MCC, b3 bool) []*mcc.MCC {
	var joined []*mcc.MCC
	k := RXMinusY
	c := f.Corner()
	if !b.m.In(c) {
		return nil
	}
	b.visit(c, false)
	b.deposit(c, k)
	x, y := c.X, c.Y
	first := true
	for {
		x--
		if x < 0 {
			return joined
		}
		pos := mesh.C(x, y)
		b.visit(pos, true)
		g := b.set.At(pos)
		b.readComp(g)
		if g == nil {
			b.deposit(pos, k)
			continue
		}
		// Symmetric relation recording at the westward walk's first
		// intersection.
		if b3 && first {
			if b.set.IsSuccessorY(g, f) {
				b.addRelation(g, false)
			}
			if b.set.IsSuccessorX(g, f) {
				b.addRelation(g, true)
			}
		}
		first = false
		joined = append(joined, g)
		if b3 {
			b.splitJoinPlusY(f, g, y)
		}
		nx, ny, ok := b.traverseRightSouth(k, g, y)
		if !ok {
			return joined
		}
		x, y = nx, ny
	}
}

// traverseRightSouth walks from the east side of g at row fromY southward
// along g's right staircase and west along its bottom to g's corner,
// depositing kind k — the transpose of traverseTopWest.
func (b *builder) traverseRightSouth(k Kind, g *mcc.MCC, fromY int) (x, y int, ok bool) {
	x = g.RowHi[fromY-g.Y0] + 1
	for cy := fromY - 1; cy >= g.Y0-1; cy-- {
		if cy >= g.Y0 {
			for ; x > g.RowHi[cy-g.Y0]+1; x-- {
				b.visit(mesh.C(x-1, cy+1), true)
				b.deposit(mesh.C(x-1, cy+1), k)
			}
		}
		if cy < 0 {
			return 0, 0, false
		}
		b.visit(mesh.C(x, cy), true)
		b.deposit(mesh.C(x, cy), k)
	}
	y = g.Y0 - 1
	for ; x > g.RowLo[0]-1; x-- {
		b.visit(mesh.C(x-1, y), true)
		b.deposit(mesh.C(x-1, y), k)
	}
	if x < 0 {
		return 0, 0, false
	}
	return x, y, true
}

// splitJoinPlusY is the transposed split branch: f's shape travels north
// along g's east staircase to g's opposite corner and continues as a +Y
// boundary west along y = y_{g'}.
func (b *builder) splitJoinPlusY(f, g *mcc.MCC, fromY int) {
	k := RXPlusY
	x := g.RowHi[fromY-g.Y0] + 1
	for cy := fromY + 1; cy <= g.Y1; cy++ {
		for ; x < g.RowHi[cy-g.Y0]+1; x++ {
			b.visit(mesh.C(x+1, cy-1), true)
			b.deposit(mesh.C(x+1, cy-1), k)
		}
		b.visit(mesh.C(x, cy), true)
		b.deposit(mesh.C(x, cy), k)
	}
	y := g.Y1 + 1
	if y >= b.m.Height() {
		return
	}
	b.visit(mesh.C(x, y), true)
	b.deposit(mesh.C(x, y), k)
	b.plusYFrom(f, x, y)
}

// boundaryPlusY builds the +Y boundary of f: west from the opposite corner
// along y = y_{c'}, joining +Y boundaries at opposite corners. Returns the
// joined components.
func (b *builder) boundaryPlusY(f *mcc.MCC) []*mcc.MCC {
	c := f.Opposite()
	if !b.m.In(c) {
		return nil
	}
	b.visit(c, false)
	b.deposit(c, RXPlusY)
	return b.plusYFrom(f, c.X, c.Y)
}

// plusYFrom continues a +Y boundary of f westward from (x, y).
func (b *builder) plusYFrom(f *mcc.MCC, x, y int) []*mcc.MCC {
	var joined []*mcc.MCC
	k := RXPlusY
	for {
		x--
		if x < 0 {
			return joined
		}
		pos := mesh.C(x, y)
		b.visit(pos, true)
		g := b.set.At(pos)
		b.readComp(g)
		if g == nil {
			b.deposit(pos, k)
			continue
		}
		joined = append(joined, g)
		// Turn: north along g's east staircase to its opposite corner.
		cx := g.RowHi[y-g.Y0] + 1
		for cy := y + 1; cy <= g.Y1; cy++ {
			for ; cx < g.RowHi[cy-g.Y0]+1; cx++ {
				b.visit(mesh.C(cx+1, cy-1), true)
				b.deposit(mesh.C(cx+1, cy-1), k)
			}
			b.visit(mesh.C(cx, cy), true)
			b.deposit(mesh.C(cx, cy), k)
		}
		y = g.Y1 + 1
		if y >= b.m.Height() {
			return joined
		}
		x = cx
		b.visit(mesh.C(x, y), true)
		b.deposit(mesh.C(x, y), k)
	}
}
