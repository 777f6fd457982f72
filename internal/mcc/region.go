package mcc

import "repro/internal/mesh"

// This file implements the forbidden and critical regions of an MCC and the
// per-component blocking predicate of the paper's information model. In
// line/depth coordinates along an axis a (see Axis):
//
//   - R_a(f), the forbidden region: nodes on one of f's lines strictly
//     below its low staircase (lower depth). A Manhattan (+X/+Y) routing
//     that starts there and must end beyond the component cannot avoid it.
//   - R'_a(f), the critical region: nodes on one of f's lines strictly
//     beyond its high staircase.
//
// Along AxisY these are the paper's +Y pair R_Y / R'_Y (column span,
// below the bottom staircase and above the top one); along AxisX they are
// the type-II pair R_X / R'_X, defined on the row span ("obtained by
// simply rotating the mesh").
//
// The central fact (from [5], proved here as an exact geometric statement
// and property-tested against a monotone DP): a Manhattan path from u to d
// crossing no cell of component F fails to exist iff, along some axis a,
//
//	u ∈ R_a(F) ∧ d ∈ R'_a(F).
//
// Note the regions deliberately exclude the corner lines (x_c and x_{c'}
// along AxisY): a node on a corner line can always slide along it past the
// component, so including those lines (as a literal reading of the paper's
// "boundary-to-boundary" region might) would over-block. The boundary LINES
// of package info still run on those lines; they carry information, they
// are not themselves forbidden.

// InForbidden reports u ∈ R_a(f): u lies on one of f's lines along a,
// strictly below the low staircase. Routing walks call it per stored
// triple on every hop, so it selects the profile fields with one branch
// and ends in a single comparison chain, which the compiler turns into
// direct jumps at the call site.
func (f *MCC) InForbidden(a Axis, u mesh.Coord) bool {
	i, q, lo := u.X-f.X0, u.Y, f.ColLo
	if a != AxisY {
		i, q, lo = u.Y-f.Y0, u.X, f.RowLo
	}
	return uint(i) < uint(len(lo)) && q < lo[i]
}

// InCritical reports d ∈ R'_a(f): d lies on one of f's lines along a,
// strictly beyond the high staircase.
func (f *MCC) InCritical(a Axis, d mesh.Coord) bool {
	i, q, hi := d.X-f.X0, d.Y, f.ColHi
	if a != AxisY {
		i, q, hi = d.Y-f.Y0, d.X, f.RowHi
	}
	return uint(i) < uint(len(hi)) && q > hi[i]
}

// BlocksManhattan reports whether every monotone (+X/+Y) path from u to d
// crosses a cell of f, assuming u is dominated by d and neither endpoint is
// a cell of f. This is the region-pair predicate; PassBelow/PassAbove give
// the direct geometric characterization and tests pin their equivalence.
func (f *MCC) BlocksManhattan(u, d mesh.Coord) bool {
	for _, a := range Axes {
		if f.InForbidden(a, u) && f.InCritical(a, d) {
			return true
		}
	}
	return false
}

// PassBelow reports whether a monotone path from u to d can pass entirely
// below f's bottom staircase wherever their column ranges overlap.
//
// Because ColLo is non-decreasing, the binding constraint on entry is the
// first overlapping column, and on exit the destination column (when d's
// column lies inside f's span).
func (f *MCC) PassBelow(u, d mesh.Coord) bool {
	xa := max(u.X, f.X0) // first overlapping column
	if u.X > f.X1 || d.X < f.X0 {
		return true // no overlap: nothing to pass
	}
	if u.Y >= f.ColLo[xa-f.X0] {
		return false // already level with or above the bottom at entry
	}
	if d.X <= f.X1 && d.Y >= f.ColLo[d.X-f.X0] {
		return false // must rise into the component at d's column
	}
	return true
}

// PassAbove reports whether a monotone path from u to d can pass entirely
// above f's top staircase wherever their column ranges overlap.
func (f *MCC) PassAbove(u, d mesh.Coord) bool {
	if u.X > f.X1 || d.X < f.X0 {
		return true
	}
	if u.X >= f.X0 && u.Y <= f.ColHi[u.X-f.X0] {
		return false // cannot rise over the component in u's own column
	}
	xb := min(d.X, f.X1) // last overlapping column
	if d.Y <= f.ColHi[xb-f.X0] {
		return false // still under the top at exit
	}
	return true
}

// BlocksDirect is the direct geometric blocking predicate: no monotone path
// can pass below or above. Property tests pin BlocksDirect ==
// BlocksManhattan == monotone-DP blocking for safe endpoints.
func (f *MCC) BlocksDirect(u, d mesh.Coord) bool {
	if u.X > f.X1 || d.X < f.X0 || u.Y > f.Y1 || d.Y < f.Y0 {
		// The component lies outside the travel rectangle's reach in at
		// least one axis; monotone paths can always sidestep it.
		return false
	}
	return !f.PassBelow(u, d) && !f.PassAbove(u, d)
}
