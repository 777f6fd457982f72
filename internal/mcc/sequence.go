package mcc

import (
	"slices"
	"sync"

	"repro/internal/mesh"
)

// This file implements blocking sequences (the paper's Equation 1), the
// succeeding-MCC relation (Equation 4), and their identification from a
// node's viewpoint (Equation 5), once, in line/depth coordinates along an
// Axis.
//
// A sequence F1, ..., Fn along axis a blocks travel toward increasing
// depth: u sits in the forbidden region R_a(F1), d in the critical region
// R'_a(Fn), consecutive components overlap in lines with ascending tops
// (highest depth), and the union of the sequence's cells cuts every
// monotone path from u to d. Along AxisY this is the paper's type-I
// sequence, blocking +Y over column spans; along AxisX it is the type-II
// sequence, blocking +X over row spans.
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
// minimal corners, with one extra pruning rule (a free line strictly
// between consecutive spans always opens the corridor, because a monotone
// path below the first component can rise without bound there) — and
// *certify* every completed chain with an exact monotone reachability
// sweep over the union of its cells from the actual u to the actual d
// (see sweeper). Certified chains are blocking sequences by construction.
// Before searching, FindSequence runs the same sweep over every component:
// when a monotone path over safe nodes exists it avoids every chain, so no
// chain can certify and the search is skipped. The search itself gives up
// after seqCandidateBudget certifications per axis, so FindSequence
// reports no sequence either when a Manhattan path over safe nodes exists
// or when the budget ran out. The property tests pin "no sequence iff a
// Manhattan path" on fields up to 35x35, where the budget is never
// reached; FindSequence's doc gives how often it runs out on the
// benchmark fixture.

// Sequence is one blocking sequence with its axis.
type Sequence struct {
	// Chain holds F1..Fn in order.
	Chain []*MCC
	// Axis is AxisY for a type-I sequence (+Y blocked) and AxisX for a
	// type-II one (+X blocked).
	Axis Axis
}

// Blocks reports whether the union of the sequence's cells cuts every
// monotone path from u to d — the certification used during construction,
// exported for tests and for the routing layer's sanity checks.
func (q *Sequence) Blocks(u, d mesh.Coord) bool {
	var sw sweeper
	return !sw.reach(u, d, q.Chain, nil)
}

// span is a closed interval [lo, hi] of rows in one column.
type span struct{ lo, hi int }

// sweeper decides monotone reachability column by column. Every component
// occupies one interval [ColLo, ColHi] per column, and distinct components
// of a Set never touch, so inside the u-d rectangle the rows that u
// reaches by +X/+Y moves form at most k+1 disjoint intervals in a column
// that k components cross. Each column's intervals follow from the
// previous column's by a two-pointer merge with the column's blocked
// intervals: O(columns x k) instead of the O(area) per-cell dynamic
// program, which the tests keep as the oracle.
type sweeper struct {
	// cur holds the reachable rows of the last swept column (n
	// intervals, ascending); next is the merge target, swapped in after
	// each column; blocked holds the current column's blocked intervals,
	// ascending.
	cur, next, blocked []span
	n                  int
}

// reach reports whether a path of +X/+Y moves joins u to d inside their
// rectangle without entering a blocked cell. The blocked cells of column
// x are those of the components in lines[x] (ordered by ascending low
// row, as Set.lines[AxisY] is) or, when lines is nil, of chain's
// components in any order. The pair must be dominated (u.X <= d.X,
// u.Y <= d.Y); otherwise reach reports false.
//
//meshlint:hotpath
func (sw *sweeper) reach(u, d mesh.Coord, chain []*MCC, lines [][]*MCC) bool {
	if u.X > d.X || u.Y > d.Y {
		return false
	}
	// Rows lo..hi hold at most (hi-lo+2)/2 pairwise separated intervals,
	// and one more reachable interval than blocked ones.
	if need := (d.Y-u.Y)/2 + 2; cap(sw.cur) < need {
		sw.grow(need)
	}
	// Seed a virtual column u.X-1 whose only reachable row is u's: the
	// first column then reaches up from u.Y inside u's free segment.
	sw.cur[0], sw.n = span{u.Y, u.Y}, 1
	for x := u.X; x <= d.X; x++ {
		list := chain
		if lines != nil {
			list = lines[x]
		}
		if !sw.advance(sw.column(list, x, u.Y, d.Y), u.Y, d.Y) {
			return false
		}
	}
	return sw.cur[sw.n-1].hi == d.Y
}

// grow sizes the buffers for n intervals (cold: FindSequence's pooled
// sweepers are sized for the whole mesh up front).
func (sw *sweeper) grow(n int) {
	sw.cur, sw.next, sw.blocked = make([]span, n), make([]span, n), make([]span, n)
}

// column fills sw.blocked with the intervals that list's components
// occupy in column x, clipped to the rows lo..hi, in ascending order, and
// returns their count. An insertion sort keeps the order: chains are a
// handful of components, and Set.lines lists arrive sorted.
//
//meshlint:hotpath
func (sw *sweeper) column(list []*MCC, x, lo, hi int) int {
	nb := 0
	for _, f := range list {
		i := x - f.X0
		if uint(i) >= uint(len(f.ColLo)) || f.ColHi[i] < lo || f.ColLo[i] > hi {
			continue
		}
		b, j := span{f.ColLo[i], f.ColHi[i]}, nb
		for ; j > 0 && sw.blocked[j-1].lo > b.lo; j-- {
			sw.blocked[j] = sw.blocked[j-1]
		}
		sw.blocked[j] = b
		nb++
	}
	return nb
}

// advance replaces the previous column's reachable rows with column x's,
// given its nb blocked intervals: in every free segment of rows lo..hi,
// the reachable rows run from the lowest row entered from the west (a row
// reachable in the previous column) to the segment's top. It reports
// whether any row of the column is reachable.
//
//meshlint:hotpath
func (sw *sweeper) advance(nb, lo, hi int) bool {
	out, i, s := 0, 0, lo
	for k := 0; k <= nb; k++ {
		e := hi
		if k < nb {
			e = sw.blocked[k].lo - 1
		}
		if s <= e {
			for i < sw.n && sw.cur[i].hi < s {
				i++
			}
			if i < sw.n && sw.cur[i].lo <= e {
				sw.next[out] = span{max(sw.cur[i].lo, s), e}
				out++
			}
		}
		if k < nb {
			s = sw.blocked[k].hi + 1
		}
	}
	sw.cur, sw.next, sw.n = sw.next, sw.cur, out
	return out > 0
}

// extent is what the successor relation reads of one component along an
// axis: its first and last line, its top (highest depth) and the low
// depth of its first line. index flattens them into one slice per axis,
// so the all-pairs scan below stays in cache.
type extent struct{ first, last, top, lo int }

// appendSuccessors appends to dst every structurally valid succeeding
// component of component id, given every component's extent along one
// axis: Equation 1's overlap and ascending-top conditions, plus the
// no-free-gap rule (a free line between the spans always opens the
// corridor). The list is ordered by Equation 4's preference — ascending
// corner depth (y_w for type-I), ties by ID. It depends only on the fault
// configuration, not on the routing pair, so index stores it on the Set.
func (s *Set) appendSuccessors(dst []*MCC, ext []extent, id int) []*MCC {
	f := ext[id]
	n := len(dst)
	for j, g := range ext {
		// Equation 1: x_{c_i} <= x_{c_{i+1}} <= x_{c'_i}; the no-free-gap
		// rule tightens the upper bound from the last line + 2 to + 1.
		if j == id || g.first < f.first || g.first > f.last+1 || g.top <= f.top {
			continue
		}
		dst = append(dst, s.all[j])
	}
	// Equation 4 ordering: minimal corner depth first; the stable sort
	// keeps s.all's ID order among ties.
	slices.SortStableFunc(dst[n:], func(g, h *MCC) int { return ext[g.ID].lo - ext[h.ID].lo })
	return dst
}

// IsSuccessor reports whether succ is a structurally valid succeeding
// component of pred along a (Equation 1 overlap, ascending top,
// no-free-gap). Package info uses it to decide which boundary-walk
// intersections record succeeding-MCC relations: the paper's literal
// condition (x_c > x_{v'}) is unsatisfiable for interlocked pairs — the
// chain conditions force x_c < x_{v'} — so we read Algorithm 6 step 4 as
// "the intersected component is a chain predecessor candidate" and test
// exactly that.
func (s *Set) IsSuccessor(a Axis, pred, succ *MCC) bool {
	return slices.Contains(s.succ[a][pred.ID], succ)
}

// FindSequence identifies the closest blocking sequence for a routing from
// u to d in canonical orientation (u dominated by d, both safe), per
// Equations 1, 4, and 5, and writes it into dst, reusing dst.Chain's
// backing array. It reports false, leaving dst unspecified, when no
// sequence is found: always when a Manhattan path over safe nodes exists
// (a sweep over every component decides that before any chain search),
// but also when the search spends seqCandidateBudget certifications on
// both axes without certifying a chain. So false does not mean "a
// Manhattan path exists" exactly. On the benchmark fixture (100x100,
// 1500 faults, meshbench's 1024 uniform pairs), 81 of the 193,907 calls
// of the RB2 walks have both endpoints safe, no safe monotone path, and
// exhaust the budget; they fall in 3 walks, one of which ends longer
// than the shortest path.
//
// Both axes are tried; the paper shows safe endpoints can be blocked by at
// most one type.
//
//meshlint:hotpath
func (s *Set) FindSequence(u, d mesh.Coord, dst *Sequence) bool {
	sc := s.seqScratchFor()
	found := !sc.sweep.reach(u, d, nil, s.lines[AxisY]) &&
		(sc.findAxis(s, u, d, AxisY, dst) || sc.findAxis(s, u, d, AxisX, dst))
	seqScratchPool.Put(sc)
	return found
}

// seqCandidateBudget bounds how many structurally complete chains one
// query certifies per axis before giving up. Dead ends are memoized, so
// the bound only limits long searches: the small-field equivalence tests
// run far below it, and FindSequence's doc gives how often it binds on
// the benchmark fixture.
const seqCandidateBudget = 256

// seqScratch bundles the reusable state of one FindSequence call: the
// per-component dead-end and on-chain marks (indexed by MCC ID), the DFS
// chain, the sweeper that certifies chains and decides the safe-path
// shortcut, and the running search's query. Pooled so the routing hot
// path — which calls FindSequence on every hop of a destination leg and
// at every planner node — allocates nothing at steady state.
type seqScratch struct {
	deadEnd []bool
	onChain []bool
	// chain has capacity len(set.All()): the onChain marks keep every
	// component on it at most once.
	chain []*MCC
	sweep sweeper

	// The query of the running findAxis: dfs reads it, and findAxis
	// clears set and dst on return, so a pooled scratch pins no Set.
	set    *Set
	dst    *Sequence
	u, d   mesh.Coord
	a      Axis
	budget int
}

// seqScratchPool is package-wide rather than per Set: a pool inside a
// Set would keep every retired Set reachable, through the runtime's pool
// registry, for two more GC cycles. Concurrent FindSequence callers each
// borrow their own buffers.
var seqScratchPool sync.Pool

// seqScratchFor fetches a scratch from the pool, sized for this set: the
// sweeper for the tallest rectangle of the mesh, so that no query grows it.
func (s *Set) seqScratchFor() *seqScratch {
	sc, _ := seqScratchPool.Get().(*seqScratch)
	if sc == nil {
		sc = &seqScratch{}
	}
	if len(sc.deadEnd) < len(s.all) {
		sc.deadEnd = make([]bool, len(s.all))
		sc.onChain = make([]bool, len(s.all))
		sc.chain = make([]*MCC, 0, len(s.all))
	}
	if need := s.grid.Mesh().Height()/2 + 2; cap(sc.sweep.cur) < need {
		sc.sweep.grow(need)
	}
	return sc
}

// findAxis searches for a blocking chain along a with a depth-first walk
// over the successor relation in Equation 4 preference order, certifying
// each structurally complete chain with the sweep, and copies the first
// certified chain into dst. Structural dead ends (components from which
// no completion is reachable) are memoized; sweep rejections are not
// memoizable (they depend on the whole chain) and consume the candidate
// budget instead.
//
//meshlint:hotpath
func (sc *seqScratch) findAxis(s *Set, u, d mesh.Coord, a Axis, dst *Sequence) bool {
	clear(sc.deadEnd[:len(s.all)])
	sc.set, sc.dst, sc.u, sc.d, sc.a, sc.budget = s, dst, u, d, a, seqCandidateBudget
	found := false
	// Seeds: the components whose forbidden region along a contains u, in
	// the order the paper's "+Y detection ray" meets them. The line index
	// is ordered by ascending low depth at u's line, so that is its order.
	p, _ := a.Split(u)
	for _, f := range s.Along(a, p) {
		if f.InForbidden(a, u) && sc.dfs(f) {
			found = true
			break
		}
	}
	sc.set, sc.dst = nil, nil
	return found
}

// dfs puts f on the chain: it certifies the chain when f reaches d's
// critical region, copying a certified chain into sc.dst, and otherwise
// extends it through f's successors in preference order. When no
// completion is reachable from f, it marks f a dead end.
//
//meshlint:hotpath
func (sc *seqScratch) dfs(f *MCC) bool {
	if sc.deadEnd[f.ID] || sc.onChain[f.ID] || sc.budget <= 0 {
		return false
	}
	n := len(sc.chain)
	sc.chain = sc.chain[:n+1]
	sc.chain[n] = f
	sc.onChain[f.ID] = true
	defer func() {
		sc.chain = sc.chain[:n]
		sc.onChain[f.ID] = false
	}()
	a, completed := sc.a, false
	if f.InCritical(a, sc.d) {
		completed = true
		sc.budget--
		if !sc.sweep.reach(sc.u, sc.d, sc.chain, nil) {
			// Only the certified chain leaves the scratch.
			sc.dst.Chain = append(sc.dst.Chain[:0], sc.chain...)
			sc.dst.Axis = a
			return true
		}
	}
	// Extend while d is not underneath the chain: if d sits in f's
	// forbidden region, any monotone path ends below f and no longer
	// chain through f can block d from above.
	if !f.InForbidden(a, sc.d) {
		for _, g := range sc.set.succ[a][f.ID] {
			if sc.dfs(g) {
				return true
			}
			if !sc.deadEnd[g.ID] {
				completed = true // g reached completions; they failed the sweep
			}
		}
	}
	if !completed {
		sc.deadEnd[f.ID] = true
	}
	return false
}
