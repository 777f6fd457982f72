package info

import (
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// This file implements Algorithm 4 step 5: under model B2, the triple
// deposited along the minus and plus boundaries of a component along an
// axis broadcasts through the forbidden region between them, so that every
// node inside holds the axis's triple — (F, R_Y, R'_Y) along AxisY,
// (F, R_X, R'_X) along AxisX. Nodes do not accept duplicates, so each node
// relays a given component's triple at most once: the nodes holding it are
// the flood's visited set, and the flood is a BFS over mesh links
// restricted to the (merged) forbidden region.
//
// The relay predicate is locally decidable: the message carries the shape
// of the source component and of the components whose regions merged into
// it during boundary construction (the "joined" list); a node relays iff it
// is safe and lies inside the extended forbidden region of any of them. The
// extended region closes the paper's "area between these two boundaries":
// it includes the boundary lines of the corners c and c' below the
// respective corners, unlike the exact blocking regions of package mcc (see
// the comment there for why routing predicates must exclude those lines).
//
// In line/depth coordinates along the axis (see mcc.Axis), an extended
// region is the band of lines from c's to c''s at or below an upper
// profile: under the corner on c's line, strictly under the low staircase
// across the span, and at or below the high staircase's last depth on c''s
// line. It is thus one depth threshold per line, and the union of several
// regions is the per-line maximum.

// flood broadcasts f's triple along axis a through the union of the
// extended forbidden regions of f and the joined components. It seeds from
// the nodes already holding that triple, which are exactly the axis's
// boundary nodes (the other axis's flood deposits only its own triple),
// and relays through safe region nodes. Every link crossing is charged,
// including rejected duplicates arriving at already-informed nodes,
// matching how a real broadcast spends messages.
func (b *builder) flood(f *mcc.MCC, joined []*mcc.MCC, a mcc.Axis) {
	lo, hi := b.limits(f, joined, a)
	q := b.queue[:0]
	for _, d := range b.lg.deposits {
		if d.axis == a {
			q = append(q, d.idx)
		}
	}
	w, h := b.m.Width(), b.m.Height()
	for head := 0; head < len(q); head++ {
		// Neighbors in mesh.Directions order: +X, -X, +Y, -Y.
		idx := int(q[head])
		x, y := idx%w, idx/w
		if x+1 < w && b.relay(idx+1, x+1, y, a) {
			q = append(q, int32(idx+1))
		}
		if x > 0 && b.relay(idx-1, x-1, y, a) {
			q = append(q, int32(idx-1))
		}
		if y+1 < h && b.relay(idx+w, x, y+1, a) {
			q = append(q, int32(idx+w))
		}
		if y > 0 && b.relay(idx-w, x, y-1, a) {
			q = append(q, int32(idx-w))
		}
	}
	b.queue = q
	for i := lo; i <= hi; i++ {
		b.lim[i] = -1
	}
}

// relay delivers the flood message to node n at (x, y) when n lies in the
// region, and reports whether n was newly informed and so relays further.
func (b *builder) relay(n, x, y int, a mcc.Axis) bool {
	line, depth := a.Split(mesh.C(x, y))
	if depth > int(b.lim[line]) {
		return false
	}
	b.logFootprint(n)
	if !b.grid.Safe(mesh.C(x, y)) {
		return false
	}
	b.lg.messages++
	return b.depositAt(n, a) // a duplicate is rejected; the message is still spent
}

// limits writes the region thresholds of f and joined along a into lim
// and returns the range of lines written. Lines no region covers keep -1,
// below every node.
func (b *builder) limits(f *mcc.MCC, joined []*mcc.MCC, a mcc.Axis) (lo, hi int) {
	n := a.Lines(b.m)
	if b.lim == nil {
		b.lim = make([]int32, max(b.m.Width(), b.m.Height()))
		for i := range b.lim {
			b.lim[i] = -1
		}
	}
	lim := b.lim[:n]
	lo, hi = n, -1
	for i := -1; i < len(joined); i++ {
		g := f
		if i >= 0 {
			g = joined[i]
		}
		first, lows, highs := g.Profile(a)
		raise(lim, first-1, lows[0]-1) // under the corner
		for j, l := range lows {
			raise(lim, first+j, l-1) // strictly under the low staircase
		}
		raise(lim, first+len(lows), highs[len(highs)-1]) // under the opposite corner
		lo, hi = min(lo, first-1), max(hi, first+len(lows))
	}
	return max(lo, 0), min(hi, n-1)
}

// raise lifts lim[line] to at least v; lines off the mesh are skipped.
func raise(lim []int32, line, v int) {
	if line >= 0 && line < len(lim) && int32(v) > lim[line] {
		lim[line] = int32(v)
	}
}
