package mesh

import "fmt"

// Mesh describes a W x H 2-D mesh-connected topology. Interior nodes have
// degree 4; nodes along each dimension are connected as a linear array
// (no wraparound — this is a mesh, not a torus).
//
// Mesh is an immutable value type: it carries no fault state. Fault sets,
// label grids, and info stores are separate layers keyed by node index.
type Mesh struct {
	w, h int
}

// New returns a W x H mesh. It panics if either dimension is < 1, since a
// degenerate mesh is always a programming error in this repository.
func New(w, h int) Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", w, h))
	}
	return Mesh{w: w, h: h}
}

// Square returns an n x n mesh, the configuration used throughout the
// paper's evaluation (n = 100).
func Square(n int) Mesh { return New(n, n) }

// Width returns the X-dimension extent.
func (m Mesh) Width() int { return m.w }

// Height returns the Y-dimension extent.
func (m Mesh) Height() int { return m.h }

// Nodes returns the total node count W*H.
func (m Mesh) Nodes() int { return m.w * m.h }

// In reports whether c lies inside the mesh.
func (m Mesh) In(c Coord) bool {
	return c.X >= 0 && c.X < m.w && c.Y >= 0 && c.Y < m.h
}

// Index converts a coordinate to a dense node index in [0, Nodes()).
// It panics for out-of-mesh coordinates; callers must bounds-check with In
// first when handling border-adjacent geometry.
func (m Mesh) Index(c Coord) int {
	if !m.In(c) {
		panic(fmt.Sprintf("mesh: coordinate %v outside %dx%d mesh", c, m.w, m.h))
	}
	return c.Y*m.w + c.X
}

// CoordOf converts a dense node index back to its coordinate.
func (m Mesh) CoordOf(idx int) Coord {
	if idx < 0 || idx >= m.Nodes() {
		panic(fmt.Sprintf("mesh: index %d outside %dx%d mesh", idx, m.w, m.h))
	}
	return Coord{X: idx % m.w, Y: idx / m.w}
}

// Neighbor returns the neighbor of c in direction d and true, or the zero
// Coord and false when the hop would leave the mesh (c is on that border).
func (m Mesh) Neighbor(c Coord, d Direction) (Coord, bool) {
	n := c.Step(d)
	if !m.In(n) {
		return Coord{}, false
	}
	return n, true
}

// Neighbors appends to dst the in-mesh neighbors of c in the stable
// (+X, -X, +Y, -Y) order and returns the extended slice. Passing a
// reusable dst avoids per-call allocation in hot simulation loops.
func (m Mesh) Neighbors(c Coord, dst []Coord) []Coord {
	for _, d := range Directions {
		if n, ok := m.Neighbor(c, d); ok {
			dst = append(dst, n)
		}
	}
	return dst
}

// Bounds returns the rectangle covering the whole mesh.
func (m Mesh) Bounds() Rect {
	return Rect{X0: 0, Y0: 0, X1: m.w - 1, Y1: m.h - 1}
}

// EachNode calls fn for every coordinate in row-major order
// ((0,0), (1,0), ..., (W-1,0), (0,1), ...). Iteration order is part of the
// determinism contract relied on by the simulators.
func (m Mesh) EachNode(fn func(Coord)) {
	for y := 0; y < m.h; y++ {
		for x := 0; x < m.w; x++ {
			fn(Coord{X: x, Y: y})
		}
	}
}

// String describes the mesh for logs and error messages.
func (m Mesh) String() string { return fmt.Sprintf("%dx%d mesh", m.w, m.h) }
