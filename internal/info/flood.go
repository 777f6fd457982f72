package info

import (
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// This file implements Algorithm 4 step 5: under model B2, the triples
// deposited along the -X and +X boundaries of a component broadcast through
// the forbidden region between them, so that every node inside knows
// (F, R_Y, R'_Y). Nodes do not accept duplicates, so each node relays a
// given component's triple at most once; the flood is a BFS over mesh links
// restricted to the (merged) forbidden region.
//
// The relay predicate is locally decidable: the message carries the shape
// of the source component and of the components whose regions merged into
// it during boundary construction (the "joined" list); a node relays iff it
// is safe and lies inside the extended forbidden region of any of them. The
// extended region closes the paper's "area between these two boundaries":
// it includes the boundary-line columns x_c and x_{c'} below the respective
// corners, unlike the exact blocking regions of package mcc (see the
// comment there for why routing predicates must exclude those columns).
//
// An extended region R_Y is the column band [x_c, x_{c'}] at or below an
// upper profile: under the corner on the x_c column, strictly under the
// bottom staircase across the span, and at or below the top staircase's
// last row on the x_{c'} column. It is thus one threshold per column, and
// the union of several regions is the per-column maximum. R_X is the
// transpose, one threshold per row.

// floodAxis fixes what one of a component's two floods carries.
type floodAxis struct {
	minus, plus Kind  // the triple pair deposited on every flooded node
	seen        uint8 // the stage mark of nodes the flood reached
	y           bool  // R_Y: limits per column bound y; R_X: per row bound x
}

var (
	floodY = floodAxis{minus: RYMinusX, plus: RYPlusX, seen: markSeenY, y: true}
	floodX = floodAxis{minus: RXMinusY, plus: RXPlusY, seen: markSeenX, y: false}
)

// flood broadcasts f's triple pair of axis ax through the union of the
// extended forbidden regions of f and the joined components. It seeds from
// the stage's boundary deposits of that axis (deposits[:seeds]) and relays
// through safe region nodes, depositing both triples (the flooded node
// learns the full identified information). Every link crossing is charged,
// including rejected duplicates arriving at already-informed nodes,
// matching how a real broadcast spends messages.
func (b *builder) flood(f *mcc.MCC, joined []*mcc.MCC, seeds int, ax floodAxis) {
	lo, hi := b.limits(f, joined, ax.y)
	q := b.queue[:0]
	for i := 0; i < seeds; i++ {
		d := b.lg.deposits[i]
		if d.kind.GuardsY() != ax.y || !b.mark(int(d.idx), ax.seen) {
			continue
		}
		q = append(q, d.idx)
		// The flood brings the fully identified information to the
		// boundary nodes too: a -X boundary node learns the +X side's
		// triple and vice versa.
		b.depositAt(int(d.idx), ax.minus)
		b.depositAt(int(d.idx), ax.plus)
	}
	w, h := b.m.Width(), b.m.Height()
	for head := 0; head < len(q); head++ {
		// Neighbors in mesh.Directions order: +X, -X, +Y, -Y.
		idx := int(q[head])
		x, y := idx%w, idx/w
		if x+1 < w && b.relay(idx+1, x+1, y, ax) {
			q = append(q, int32(idx+1))
		}
		if x > 0 && b.relay(idx-1, x-1, y, ax) {
			q = append(q, int32(idx-1))
		}
		if y+1 < h && b.relay(idx+w, x, y+1, ax) {
			q = append(q, int32(idx+w))
		}
		if y > 0 && b.relay(idx-w, x, y-1, ax) {
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
func (b *builder) relay(n, x, y int, ax floodAxis) bool {
	line, depth := x, y
	if !ax.y {
		line, depth = y, x
	}
	if depth > int(b.lim[line]) {
		return false
	}
	b.logFootprint(n)
	if !b.grid.Safe(mesh.C(x, y)) {
		return false
	}
	b.lg.messages++
	b.logVisit(n)
	if !b.mark(n, ax.seen) {
		return false // duplicate rejected; message still spent
	}
	b.depositAt(n, ax.minus)
	b.depositAt(n, ax.plus)
	return true
}

// limits writes the region thresholds of f and joined into lim (columns
// for R_Y, rows for R_X) and returns the range of lines written. Lines no
// region covers keep -1, below every node.
func (b *builder) limits(f *mcc.MCC, joined []*mcc.MCC, y bool) (lo, hi int) {
	n := b.m.Height()
	if y {
		n = b.m.Width()
	}
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
		first, lows, top := g.Y0, g.RowLo, g.RowHi[len(g.RowHi)-1]
		if y {
			first, lows, top = g.X0, g.ColLo, g.ColHi[len(g.ColHi)-1]
		}
		raise(lim, first-1, lows[0]-1) // under the corner
		for j, l := range lows {
			raise(lim, first+j, l-1) // strictly under the low staircase
		}
		raise(lim, first+len(lows), top) // under the opposite corner
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
