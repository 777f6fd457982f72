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
// *certify* every completed chain with an exact monotone dynamic program
// over the union of its cells from the actual u to the actual d. Certified
// chains are blocking sequences by construction; the property tests pin
// FindSequence != nil exactly to "no Manhattan path over safe nodes".

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

// monotoneReachBuf reports whether a path using only +X/+Y moves connects
// u to d without entering cells where obstacle returns true: the exact
// oracle behind blocking decisions, at O(area of the u-d rectangle). The
// DP buffer is optional and grown as needed; every cell is written, so no
// clearing between uses.
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
// along a contains u, in ascending order of first-hit distance — the order
// the paper's "+Y detection ray" would encounter them.
func (s *Set) candidatesAbove(u mesh.Coord, a Axis, dst []*MCC) []*MCC {
	// The index is ordered by ascending low depth at u's line; components
	// whose interval starts beyond u are exactly those with u in their
	// forbidden region.
	p, _ := a.Split(u)
	for _, f := range s.Along(a, p) {
		if f.InForbidden(a, u) {
			dst = append(dst, f)
		}
	}
	return dst
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
// Equations 1, 4, and 5. It returns nil when no sequence blocks — by the
// region theory, exactly when a Manhattan path exists.
//
// Both axes are tried; the paper shows safe endpoints can be blocked by at
// most one type.
func (s *Set) FindSequence(u, d mesh.Coord) *Sequence {
	for _, a := range Axes {
		if seq := s.findAxis(u, d, a); seq != nil {
			return seq
		}
	}
	return nil
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
func (s *Set) findAxis(u, d mesh.Coord, a Axis) *Sequence {
	sc := s.seqScratchFor()
	defer seqScratchPool.Put(sc)
	sc.seeds = s.candidatesAbove(u, a, sc.seeds)
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
		if f.InCritical(a, d) {
			completed = true
			budget--
			if chainBlocks(u, d, sc.chain, &sc.reach) {
				// Materialize the Sequence only for the one certified chain;
				// rejected candidates never leave the scratch.
				result = &Sequence{Chain: append([]*MCC(nil), sc.chain...), Axis: a}
				return true
			}
		}
		// Extend while d is not underneath the chain: if d sits in f's
		// forbidden region, any monotone path ends below f and no longer
		// chain through f can block d from above.
		if !f.InForbidden(a, d) {
			for _, g := range s.succ[a][f.ID] {
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
