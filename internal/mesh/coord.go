// Package mesh provides the 2-D mesh topology substrate used by every other
// package in this repository: node coordinates, the four-neighbor
// relationship, rectangular regions, direction arithmetic, and the
// orientation (quadrant mirroring) transforms that let the canonical
// "+X/+Y travel" algorithms of the paper apply to arbitrary source and
// destination placements.
//
// Coordinates follow the paper's convention: node (x, y) with
// 0 <= x < W, 0 <= y < H; (x+1, y) is the +X neighbor, (x, y+1) the +Y
// neighbor. The Manhattan distance M(u, v) = |xu-xv| + |yu-yv|.
package mesh

import "fmt"

// Coord is a node address in a 2-D mesh.
type Coord struct {
	X, Y int
}

// C is shorthand for constructing a Coord.
func C(x, y int) Coord { return Coord{X: x, Y: y} }

// String renders the coordinate in the paper's "(x,y)" style.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Manhattan returns the Manhattan distance M(c, o) = |xc-xo| + |yc-yo|.
func (c Coord) Manhattan(o Coord) int {
	return abs(c.X-o.X) + abs(c.Y-o.Y)
}

// DominatedBy reports whether c is coordinate-wise <= o, i.e. o lies in the
// closed first quadrant relative to c. A Manhattan path from c to o using
// only +X/+Y moves exists in a fault-free mesh exactly when this holds.
func (c Coord) DominatedBy(o Coord) bool {
	return c.X <= o.X && c.Y <= o.Y
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Direction identifies one of the four mesh link directions. The zero value
// is DirNone, used to express "no move" in routing decisions.
type Direction uint8

// The four link directions of an interior mesh node, plus DirNone.
const (
	DirNone Direction = iota
	PlusX
	MinusX
	PlusY
	MinusY
)

// Directions lists the four real directions in a stable order
// (+X, -X, +Y, -Y), matching the neighbor enumeration used throughout the
// paper's algorithm listings.
var Directions = [4]Direction{PlusX, MinusX, PlusY, MinusY}

// Delta returns the coordinate offset of one hop in direction d.
func (d Direction) Delta() (dx, dy int) {
	switch d {
	case PlusX:
		return 1, 0
	case MinusX:
		return -1, 0
	case PlusY:
		return 0, 1
	case MinusY:
		return 0, -1
	}
	return 0, 0
}

// Opposite returns the reverse direction; DirNone is its own opposite.
func (d Direction) Opposite() Direction {
	switch d {
	case PlusX:
		return MinusX
	case MinusX:
		return PlusX
	case PlusY:
		return MinusY
	case MinusY:
		return PlusY
	}
	return DirNone
}

// CW returns the direction obtained by a 90-degree clockwise turn, with
// "clockwise" in the paper's figure convention (+Y up, +X right):
// +Y -> +X -> -Y -> -X -> +Y.
func (d Direction) CW() Direction {
	switch d {
	case PlusY:
		return PlusX
	case PlusX:
		return MinusY
	case MinusY:
		return MinusX
	case MinusX:
		return PlusY
	}
	return DirNone
}

// CCW returns the direction obtained by a 90-degree counter-clockwise turn.
func (d Direction) CCW() Direction {
	switch d {
	case PlusY:
		return MinusX
	case MinusX:
		return MinusY
	case MinusY:
		return PlusX
	case PlusX:
		return PlusY
	}
	return DirNone
}

// String names the direction using the paper's +X/-X/+Y/-Y notation.
func (d Direction) String() string {
	switch d {
	case PlusX:
		return "+X"
	case MinusX:
		return "-X"
	case PlusY:
		return "+Y"
	case MinusY:
		return "-Y"
	}
	return "none"
}

// Step returns the coordinate one hop from c in direction d.
func (c Coord) Step(d Direction) Coord {
	dx, dy := d.Delta()
	return Coord{c.X + dx, c.Y + dy}
}

// DirTo returns the direction of the single hop from c to adjacent o and
// true, or DirNone and false if o is not one of c's four neighbors.
func (c Coord) DirTo(o Coord) (Direction, bool) {
	switch {
	case o.X == c.X+1 && o.Y == c.Y:
		return PlusX, true
	case o.X == c.X-1 && o.Y == c.Y:
		return MinusX, true
	case o.X == c.X && o.Y == c.Y+1:
		return PlusY, true
	case o.X == c.X && o.Y == c.Y-1:
		return MinusY, true
	}
	return DirNone, false
}
