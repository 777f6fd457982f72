package mcc

import "repro/internal/mesh"

// The paper develops every region, boundary and blocking sequence for +Y
// blocking (type-I) and obtains +X blocking (type-II) "by simply rotating
// the mesh". Axis is that transposition: code written once in line/depth
// coordinates serves both types.
//
// Along AxisY a line is a column and depth is the row (y); along AxisX a
// line is a row and depth is the column (x). A component's profile along
// an axis gives, for each of its lines, the lowest and highest depth it
// occupies there: ColLo/ColHi for AxisY, RowLo/RowHi for AxisX. Travel
// toward increasing depth is what the axis's sequences block.
//
// This is not mesh.Orient, which mirrors a quadrant into canonical +X/+Y
// travel; Axis transposes within the canonical frame.

// Axis selects which travel direction a region pair or blocking sequence
// obstructs.
type Axis uint8

const (
	// AxisY is type-I: +Y blocked; lines are columns, depth is y.
	AxisY Axis = iota
	// AxisX is type-II: +X blocked; lines are rows, depth is x.
	AxisX
)

// Axes lists both axes, type-I first.
var Axes = [2]Axis{AxisY, AxisX}

// String names the axis.
func (a Axis) String() string {
	if a == AxisY {
		return "Y"
	}
	return "X"
}

// C returns the node at line p and depth q along a.
func (a Axis) C(p, q int) mesh.Coord {
	if a == AxisY {
		return mesh.C(p, q)
	}
	return mesh.C(q, p)
}

// Split returns c's line and depth along a.
func (a Axis) Split(c mesh.Coord) (p, q int) {
	if a == AxisY {
		return c.X, c.Y
	}
	return c.Y, c.X
}

// Lines returns the number of lines of m along a.
func (a Axis) Lines(m mesh.Mesh) int {
	if a == AxisY {
		return m.Width()
	}
	return m.Height()
}

// Profile returns f's profile along a: its first line, and for each line
// first+i the lowest (lo[i]) and highest (hi[i]) depth it occupies there.
// That is X0, ColLo, ColHi for AxisY and Y0, RowLo, RowHi for AxisX.
func (f *MCC) Profile(a Axis) (first int, lo, hi []int) {
	if a == AxisY {
		return f.X0, f.ColLo, f.ColHi
	}
	return f.Y0, f.RowLo, f.RowHi
}
