package mcc

import (
	"sync"

	"repro/internal/mesh"
)

// This file implements blocking sequences (the paper's Equation 1), the
// succeeding-MCC relation (Equation 4), and their identification from a
// node's viewpoint (Equation 5).
//
// A type-I sequence F1, ..., Fn blocks the +Y direction: u sits in the
// forbidden region R_Y(F1), d in the critical region R'_Y(Fn), consecutive
// components overlap in columns with ascending tops, and the union of the
// sequence's cells cuts every monotone path from u to d. A type-II sequence
// blocks +X and is the exact transpose.
//
// # Construction vs. certification
//
// Equation 1's conditions (x_{c_i} <= x_{c_{i+1}} <= x_{c'_i}, ascending
// tops) are necessary but not sufficient for a candidate chain to block:
// two single-cell components at (5,5) and (7,8) satisfy them, yet a
// monotone path rises through the free column 6. Conversely, Equation 4's
// minimal-corner successor choice can dead-end while a different successor
// completes a valid chain. We therefore treat Equations 1/4 as a *search
// order* — a depth-first walk over the successor relation preferring
// minimal corners, with one extra pruning rule (a free position strictly
// between consecutive spans always opens the corridor, because a monotone
// path below the first component can rise without bound there) — and
// *certify* every completed chain with an exact monotone dynamic program
// over the union of its cells from the actual u to the actual d. Certified
// chains are blocking sequences by construction; the property tests pin
// FindSequence != nil exactly to "no Manhattan path over safe nodes".

// axis selects which travel direction a blocking sequence obstructs.
type axis uint8

const (
	// axisY: type-I sequences blocking the +Y direction; the chain runs
	// west to east over column spans.
	axisY axis = iota
	// axisX: type-II sequences blocking the +X direction; the chain runs
	// south to north over row spans. All geometry transposes.
	axisX
)

// span returns the component's extent along the chain axis.
func (f *MCC) span(a axis) (s0, s1 int) {
	if a == axisY {
		return f.X0, f.X1
	}
	return f.Y0, f.Y1
}

// loAt returns the perpendicular bottom profile at chain-axis position p.
func (f *MCC) loAt(a axis, p int) int {
	if a == axisY {
		return f.ColLo[p-f.X0]
	}
	return f.RowLo[p-f.Y0]
}

// topMax returns the highest perpendicular coordinate of the component
// (y_{c'}-1 for type-I); tops strictly ascend along a valid chain.
func (f *MCC) topMax(a axis) int {
	if a == axisY {
		return f.Y1
	}
	return f.X1
}

// inForbidden / inCritical dispatch the region tests along an axis.
func (f *MCC) inForbidden(a axis, u mesh.Coord) bool {
	if a == axisY {
		return f.InForbiddenY(u)
	}
	return f.InForbiddenX(u)
}

func (f *MCC) inCritical(a axis, d mesh.Coord) bool {
	if a == axisY {
		return f.InCriticalY(d)
	}
	return f.InCriticalX(d)
}

// Sequence is one blocking sequence with its axis.
type Sequence struct {
	// Chain holds F1..Fn in order.
	Chain []*MCC
	// TypeII is false for type-I (+Y blocked) and true for type-II
	// (+X blocked).
	TypeII bool
}

// Blocks reports whether the union of the sequence's cells cuts every
// monotone path from u to d — the certification used during construction,
// exported for tests and for the routing layer's sanity checks.
func (q *Sequence) Blocks(u, d mesh.Coord) bool {
	return chainBlocks(u, d, q.Chain, nil)
}

// chainBlocks is Blocks over a raw chain slice, with an optional reusable
// DP buffer — findAxis certifies candidate chains in place without
// materializing a Sequence per attempt.
func chainBlocks(u, d mesh.Coord, chain []*MCC, buf *[]bool) bool {
	return !monotoneReachBuf(u, d, func(c mesh.Coord) bool {
		for _, f := range chain {
			if f.Contains(c) {
				return true
			}
		}
		return false
	}, buf)
}

// MonotoneReach reports whether a path using only +X/+Y moves connects u to
// d without entering cells where obstacle returns true. It is the exact
// oracle behind blocking decisions; cost is O(area of the u-d rectangle).
func MonotoneReach(u, d mesh.Coord, obstacle func(mesh.Coord) bool) bool {
	return monotoneReachBuf(u, d, obstacle, nil)
}

// monotoneReachBuf is MonotoneReach over an optional reusable DP buffer
// (grown as needed; every cell is written, so no clearing between uses).
func monotoneReachBuf(u, d mesh.Coord, obstacle func(mesh.Coord) bool, buf *[]bool) bool {
	if u.X > d.X || u.Y > d.Y || obstacle(u) || obstacle(d) {
		return false
	}
	w, h := d.X-u.X+1, d.Y-u.Y+1
	var reach []bool
	if buf != nil {
		if cap(*buf) < w*h {
			*buf = make([]bool, w*h)
		}
		reach = (*buf)[:w*h]
	} else {
		reach = make([]bool, w*h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := false
			if !obstacle(mesh.C(u.X+x, u.Y+y)) {
				switch {
				case x == 0 && y == 0:
					v = true
				case x == 0:
					v = reach[(y-1)*w+x]
				case y == 0:
					v = reach[y*w+x-1]
				default:
					v = reach[y*w+x-1] || reach[(y-1)*w+x]
				}
			}
			reach[y*w+x] = v
		}
	}
	return reach[(h-1)*w+w-1]
}

// candidatesAbove appends to dst the components whose forbidden region
// (along ax) contains u, in ascending order of first-hit distance — the
// order the paper's "+Y detection ray" would encounter them.
func (s *Set) candidatesAbove(u mesh.Coord, ax axis, dst []*MCC) []*MCC {
	var list []*MCC
	if ax == axisY {
		list = s.InColumn(u.X)
	} else {
		list = s.InRow(u.Y)
	}
	// The index is ordered by ascending lo at that column/row; components
	// whose interval starts above u are exactly those with u in their
	// forbidden region.
	for _, f := range list {
		if f.inForbidden(ax, u) {
			dst = append(dst, f)
		}
	}
	return dst
}

// successors returns every structurally valid succeeding component of f:
// Equation 1's overlap and ascending-top conditions, plus the no-free-gap
// rule (a free position between the spans always opens the corridor).
// Lists are ordered by Equation 4's preference — ascending corner
// coordinate (y_w for type-I) — and cached per axis on the Set: they depend
// only on the fault configuration, not on the routing pair.
func (s *Set) successors(f *MCC, ax axis) []*MCC {
	cache := &s.succY
	if ax == axisX {
		cache = &s.succX
	}
	if *cache == nil {
		*cache = make([][]*MCC, len(s.all))
	}
	if (*cache)[f.ID] != nil {
		return (*cache)[f.ID]
	}
	fS0, fS1 := f.span(ax)
	list := make([]*MCC, 0, 4)
	for _, g := range s.all {
		if g == f {
			continue
		}
		gS0, _ := g.span(ax)
		// Equation 1: x_{c_i} <= x_{c_{i+1}} <= x_{c'_i}; the no-free-gap
		// rule tightens the upper bound from fS1+2 to fS1+1.
		if gS0 < fS0 || gS0 > fS1+1 {
			continue
		}
		if g.topMax(ax) <= f.topMax(ax) {
			continue
		}
		list = append(list, g)
	}
	// Equation 4 ordering: minimal corner coordinate first.
	key := func(g *MCC) int {
		gS0, _ := g.span(ax)
		return g.loAt(ax, gS0)
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && (key(list[j]) < key(list[j-1]) ||
			(key(list[j]) == key(list[j-1]) && list[j].ID < list[j-1].ID)); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	if len(list) == 0 {
		list = []*MCC{} // non-nil: marks the cache entry as computed
	}
	(*cache)[f.ID] = list
	return list
}

// IsSuccessorY reports whether succ is a structurally valid type-I
// succeeding component of pred (Equation 1 overlap, ascending top,
// no-free-gap). Package info uses it to decide which boundary-walk
// intersections record succeeding-MCC relations: the paper's literal
// condition (x_c > x_{v'}) is unsatisfiable for interlocked pairs — the
// chain conditions force x_c < x_{v'} — so we read Algorithm 6 step 4 as
// "the intersected component is a chain predecessor candidate" and test
// exactly that.
func (s *Set) IsSuccessorY(pred, succ *MCC) bool { return s.isSuccessor(pred, succ, axisY) }

// IsSuccessorX is the type-II transpose of IsSuccessorY.
func (s *Set) IsSuccessorX(pred, succ *MCC) bool { return s.isSuccessor(pred, succ, axisX) }

func (s *Set) isSuccessor(pred, succ *MCC, ax axis) bool {
	for _, g := range s.successors(pred, ax) {
		if g == succ {
			return true
		}
	}
	return false
}

// FindSequence identifies the closest blocking sequence for a routing from
// u to d in canonical orientation (u dominated by d, both safe), per
// Equations 1, 4, and 5. It returns nil when no sequence blocks — by the
// region theory, exactly when a Manhattan path exists.
//
// Both axes are tried; the paper shows safe endpoints can be blocked by at
// most one type.
func (s *Set) FindSequence(u, d mesh.Coord) *Sequence {
	if seq := s.findAxis(u, d, axisY); seq != nil {
		return seq
	}
	return s.findAxis(u, d, axisX)
}

// seqCandidateBudget bounds how many structurally complete chains one query
// certifies before giving up. Dead ends are memoized, so the bound only
// limits pathological cases; the equivalence tests run far below it.
const seqCandidateBudget = 256

// seqScratch bundles the reusable buffers of one findAxis invocation: the
// per-component dead-end and on-chain marks (indexed by MCC ID), the DFS
// chain, the seed list, and the certification DP grid. Pooled so the
// routing hot path — which calls FindSequence every hop of a planned
// leg — allocates nothing at steady state.
type seqScratch struct {
	deadEnd []bool
	onChain []bool
	chain   []*MCC
	seeds   []*MCC
	reach   []bool
}

// seqScratchPool is package-wide rather than per Set: a pool inside a
// Set would keep every retired Set reachable, through the runtime's pool
// registry, for two more GC cycles. Concurrent FindSequence callers each
// borrow their own buffers.
var seqScratchPool sync.Pool

// seqScratchFor fetches a scratch from the pool, sized for this set.
func (s *Set) seqScratchFor() *seqScratch {
	sc, _ := seqScratchPool.Get().(*seqScratch)
	if sc == nil {
		sc = &seqScratch{}
	}
	if len(sc.deadEnd) < len(s.all) {
		sc.deadEnd = make([]bool, len(s.all))
		sc.onChain = make([]bool, len(s.all))
	} else {
		clear(sc.deadEnd[:len(s.all)])
		clear(sc.onChain[:len(s.all)])
	}
	sc.chain = sc.chain[:0]
	sc.seeds = sc.seeds[:0]
	return sc
}

// findAxis searches for a blocking chain with a depth-first walk over the
// successor relation in Equation 4 preference order, certifying each
// structurally complete chain with the monotone DP. Structural dead ends
// (components from which no completion is reachable) are memoized; DP
// rejections are not memoizable (they depend on the whole chain) and
// consume the candidate budget instead.
func (s *Set) findAxis(u, d mesh.Coord, ax axis) *Sequence {
	sc := s.seqScratchFor()
	defer seqScratchPool.Put(sc)
	sc.seeds = s.candidatesAbove(u, ax, sc.seeds)
	if len(sc.seeds) == 0 {
		return nil
	}
	budget := seqCandidateBudget
	var result *Sequence
	var dfs func(f *MCC) bool
	dfs = func(f *MCC) bool {
		if sc.deadEnd[f.ID] || sc.onChain[f.ID] || budget <= 0 {
			return false
		}
		sc.chain = append(sc.chain, f)
		sc.onChain[f.ID] = true
		defer func() {
			sc.chain = sc.chain[:len(sc.chain)-1]
			sc.onChain[f.ID] = false
		}()
		completed := false
		if f.inCritical(ax, d) {
			completed = true
			budget--
			if chainBlocks(u, d, sc.chain, &sc.reach) {
				// Materialize the Sequence only for the one certified chain;
				// rejected candidates never leave the scratch.
				result = &Sequence{Chain: append([]*MCC(nil), sc.chain...), TypeII: ax == axisX}
				return true
			}
		}
		// Extend while d is not underneath the chain: if d sits in f's
		// forbidden region, any monotone path ends below f and no longer
		// chain through f can block d from above.
		if !f.inForbidden(ax, d) {
			for _, g := range s.successors(f, ax) {
				if dfs(g) {
					return true
				}
				if !sc.deadEnd[g.ID] {
					completed = true // g reached completions; they failed DP
				}
			}
		}
		if !completed {
			sc.deadEnd[f.ID] = true
		}
		return false
	}
	for _, seed := range sc.seeds {
		if dfs(seed) {
			return result
		}
	}
	return nil
}

// Corners returns the detour pivot corners of the sequence in the order the
// distance recursion of Equation 3 uses them: c_1, (c'_1, c_2), ...,
// (c'_{n-1}, c_n), c'_n.
func (q *Sequence) Corners() (first mesh.Coord, middles [][2]mesh.Coord, last mesh.Coord) {
	n := len(q.Chain)
	first = q.Chain[0].Corner()
	last = q.Chain[n-1].Opposite()
	for i := 0; i+1 < n; i++ {
		middles = append(middles, [2]mesh.Coord{q.Chain[i].Opposite(), q.Chain[i+1].Corner()})
	}
	return first, middles, last
}
