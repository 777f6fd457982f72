package mesh

import "fmt"

// Rect is the closed rectangular region [X0:X1, Y0:Y1] in the paper's
// "[x : x', y : y']" notation: all four corner coordinates are included.
// A Rect with X0 == X1 (or Y0 == Y1) is a line segment along the Y (X)
// dimension, exactly as the Preliminary section defines.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// RectOf returns the normalized rectangle spanned by two corner
// coordinates, regardless of which corner is which.
func RectOf(a, b Coord) Rect {
	r := Rect{X0: a.X, Y0: a.Y, X1: b.X, Y1: b.Y}
	if r.X0 > r.X1 {
		r.X0, r.X1 = r.X1, r.X0
	}
	if r.Y0 > r.Y1 {
		r.Y0, r.Y1 = r.Y1, r.Y0
	}
	return r
}

// Valid reports whether the rectangle is non-empty (X0<=X1 and Y0<=Y1).
func (r Rect) Valid() bool { return r.X0 <= r.X1 && r.Y0 <= r.Y1 }

// Contains reports whether c lies inside the closed rectangle.
func (r Rect) Contains(c Coord) bool {
	return c.X >= r.X0 && c.X <= r.X1 && c.Y >= r.Y0 && c.Y <= r.Y1
}

// Width returns the number of columns covered (0 for invalid rects).
func (r Rect) Width() int {
	if !r.Valid() {
		return 0
	}
	return r.X1 - r.X0 + 1
}

// Height returns the number of rows covered (0 for invalid rects).
func (r Rect) Height() int {
	if !r.Valid() {
		return 0
	}
	return r.Y1 - r.Y0 + 1
}

// Area returns the number of nodes covered.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Intersect returns the overlap of two rectangles; the result may be
// invalid (empty) when they do not overlap.
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		X0: max(r.X0, o.X0),
		Y0: max(r.Y0, o.Y0),
		X1: min(r.X1, o.X1),
		Y1: min(r.Y1, o.Y1),
	}
}

// Clip restricts the rectangle to the mesh bounds; the result may be
// invalid when the rectangle lies entirely outside.
func (r Rect) Clip(m Mesh) Rect { return r.Intersect(m.Bounds()) }

// Each calls fn for every coordinate inside the rectangle in row-major
// order. Invalid rectangles produce no calls.
func (r Rect) Each(fn func(Coord)) {
	for y := r.Y0; y <= r.Y1; y++ {
		for x := r.X0; x <= r.X1; x++ {
			fn(Coord{X: x, Y: y})
		}
	}
}

// String renders the region in the paper's bracket notation.
func (r Rect) String() string {
	return fmt.Sprintf("[%d:%d, %d:%d]", r.X0, r.X1, r.Y0, r.Y1)
}
