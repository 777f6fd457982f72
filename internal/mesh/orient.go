package mesh

// Orient identifies one of the four travel quadrants of a 2-D mesh routing
// problem. The paper develops every algorithm for the canonical case
// x_s <= x_d, y_s <= y_d ("assume x_s = y_s = 0 and x_d, y_d >= 0") and
// obtains the remaining cases "by simply rotating the mesh". In a mesh the
// symmetry group element that maps each quadrant onto the canonical one is
// a mirror of the X axis, the Y axis, or both; Orient captures which.
//
// MCC labeling, shape extraction, boundary information, and routing state
// are all orientation-specific: an analysis layer computes them once per
// Orient and routing canonicalizes each (s, d) pair on entry.
type Orient uint8

// The four orientations. The name states where the destination lies
// relative to the source in original coordinates.
const (
	// NE: x_d >= x_s, y_d >= y_s. The canonical orientation; identity map.
	NE Orient = iota
	// NW: x_d < x_s, y_d >= y_s. Mirrors the X axis.
	NW
	// SE: x_d >= x_s, y_d < y_s. Mirrors the Y axis.
	SE
	// SW: x_d < x_s, y_d < y_s. Mirrors both axes.
	SW
	// NumOrients is the number of distinct orientations.
	NumOrients = 4
)

// Orients lists all four orientations in a stable order for per-orientation
// caches and exhaustive tests.
var Orients = [NumOrients]Orient{NE, NW, SE, SW}

// OrientFor returns the orientation of the routing problem from s to d.
// Ties (equal coordinate) canonicalize toward NE, matching the paper's
// closed first quadrant "x_d, y_d >= 0".
func OrientFor(s, d Coord) Orient {
	o := NE
	if d.X < s.X {
		o |= 1 // NW bit
	}
	if d.Y < s.Y {
		o |= 2 // SE bit
	}
	return o
}

// mirrorsX reports whether the orientation flips the X axis.
func (o Orient) mirrorsX() bool { return o&1 != 0 }

// mirrorsY reports whether the orientation flips the Y axis.
func (o Orient) mirrorsY() bool { return o&2 != 0 }

// String names the orientation by destination quadrant.
func (o Orient) String() string {
	switch o {
	case NE:
		return "NE"
	case NW:
		return "NW"
	case SE:
		return "SE"
	case SW:
		return "SW"
	}
	return "invalid"
}

// To maps a coordinate from original mesh coordinates into the canonical
// frame of orientation o. The transform is an involution: applying it twice
// yields the original coordinate, so To doubles as the inverse map.
func (o Orient) To(m Mesh, c Coord) Coord {
	if o.mirrorsX() {
		c.X = m.Width() - 1 - c.X
	}
	if o.mirrorsY() {
		c.Y = m.Height() - 1 - c.Y
	}
	return c
}

// From maps a canonical-frame coordinate back to original coordinates.
// Because To is an involution, From is identical to To; it exists so call
// sites read in the intended direction.
func (o Orient) From(m Mesh, c Coord) Coord { return o.To(m, c) }

// DirTo maps a direction expressed in original coordinates into the
// canonical frame of orientation o (and, being an involution, back).
func (o Orient) DirTo(d Direction) Direction {
	if o.mirrorsX() {
		switch d {
		case PlusX:
			d = MinusX
		case MinusX:
			d = PlusX
		}
	}
	if o.mirrorsY() {
		switch d {
		case PlusY:
			d = MinusY
		case MinusY:
			d = PlusY
		}
	}
	return d
}
