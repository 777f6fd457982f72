package routing

import (
	"repro/internal/info"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// This file evaluates the paper's Equations 2 and 3: the recursive
// shortest-path distance over a blocking sequence's detour options, and the
// intermediate destinations (pivots) the multi-phase routing should visit.
//
//	P_0 = M(u, c_1)            + D(c_1, d)
//	P_i = M(u, c'_i) + M(c'_i, c_{i+1}) + D(c_{i+1}, d),  1 <= i < n
//	P_n = M(u, c'_n)           + D(c'_n, d)
//
// with D(x, d) = M(x, d) when no sequence blocks x -> d and the minimum
// over the options of x's closest sequence otherwise.
//
// Deviations forced by under-specification:
//
//   - corners occupied by faults/other components or lying outside the mesh
//     are unusable and their options are dropped; if every option drops the
//     plan fails and the caller falls back to detour walking;
//   - D(x, d) for a pivot x not dominated by d (possible whenever a corner
//     overshoots the destination's row or column) is evaluated by rotating
//     into the (x, d) pair's own orientation and recursing there — the
//     paper's "simply rotating the mesh" — with a depth budget shared
//     across orientations;
//   - recursion is memoized per query and cycle-guarded; a cycle renders
//     the option invalid.

// seqFinder abstracts how a node identifies the closest blocking sequence:
// RB2 queries the full geometry (model B2 floods every forbidden region),
// RB3 reconstructs from boundary relation records (Equation 5).
type seqFinder func(e env, cu, cd mesh.Coord) *mcc.Sequence

// planResult carries Equation 2's value and the pivot chain of the chosen
// option (Equation 3 contributes at most two pivots).
type planResult struct {
	dist    int
	pivots  [2]mesh.Coord // canonical-frame intermediate destinations, in order
	npivots int
	ok      bool
}

// planner memoizes Equation 2 evaluations for one (query, orientation).
// Cross-orientation recursion spawns nested planners sharing the depth
// budget. The memo and cycle-guard maps of the pre-scratch design are now
// the Scratch's index-keyed flat planTables: planner nesting is strictly
// LIFO, so each nesting level owns one table, and successive planners at
// a level are separated by the table's generation tag — opening a planner
// is a counter bump instead of two map allocations.
type planner struct {
	a     *Analysis
	model info.Model
	e     env
	find  seqFinder
	cd    mesh.Coord
	sc    *Scratch
	tbl   *planTable
	gen   uint32
}

const maxPlanDepth = 64

// newPlanner prepares an Equation 2 evaluation toward canonical
// destination cd.
//
//meshlint:hotpath
func newPlanner(a *Analysis, model info.Model, e env, find seqFinder, cd mesh.Coord, sc *Scratch) planner {
	sc.planDepth = 0
	sc.planLevel = 0
	tbl := sc.planTableAt(0)
	return planner{a: a, model: model, e: e, find: find, cd: cd, sc: sc, tbl: tbl, gen: tbl.gen}
}

// usable reports whether a corner can serve as an intermediate destination.
//
//meshlint:hotpath
func (p *planner) usable(c mesh.Coord) bool {
	return p.e.grid.Safe(c)
}

// memoPut records D(x, cd) in this planner's memo generation.
//
//meshlint:hotpath
func (p *planner) memoPut(i int, d int, ok bool) {
	p.tbl.memoGen[i] = p.gen
	p.tbl.dist[i] = int32(d)
	p.tbl.ok[i] = ok
}

// dist evaluates D(x, cd) per Equation 2. ok=false means no valid option
// exists from x (plan failure).
//
//meshlint:hotpath
func (p *planner) dist(x mesh.Coord) (int, bool) {
	xi := p.sc.index(x)
	if p.tbl.memoGen[xi] == p.gen {
		return int(p.tbl.dist[xi]), p.tbl.ok[xi]
	}
	if p.tbl.onPathGen[xi] == p.gen || p.sc.planDepth > maxPlanDepth {
		return 0, false // cycle or runaway recursion: invalid option
	}
	if !x.DominatedBy(p.cd) {
		// The leg leaves the canonical quadrant: rotate into the (x, d)
		// pair's own orientation and evaluate there, with that frame's
		// fault regions and information.
		ox := p.e.orient.From(p.a.m, x)
		od := p.e.orient.From(p.a.m, p.cd)
		e2 := p.a.envFor(ox, od, p.model)
		p.sc.planLevel++
		tbl := p.sc.planTableAt(p.sc.planLevel)
		p2 := planner{
			a: p.a, model: p.model, e: e2, find: p.find,
			cd: e2.orient.To(p.a.m, od),
			sc: p.sc, tbl: tbl, gen: tbl.gen,
		}
		p.sc.planDepth++
		d, ok := p2.dist(e2.orient.To(p.a.m, ox))
		p.sc.planDepth--
		p.sc.planLevel--
		p.memoPut(xi, d, ok)
		return d, ok
	}
	seq := p.find(p.e, x, p.cd)
	if seq == nil {
		return x.Manhattan(p.cd), true
	}
	p.tbl.onPathGen[xi] = p.gen
	p.sc.planDepth++
	d, _, _, ok := p.options(x, seq)
	p.sc.planDepth--
	p.tbl.onPathGen[xi] = 0 // clear the cycle mark (generations start at 1)
	p.memoPut(xi, d, ok)
	return d, ok
}

// options evaluates Equation 3 for the sequence blocking x and returns the
// best distance with its pivot chain (at most two pivots).
//
//meshlint:hotpath
func (p *planner) options(x mesh.Coord, seq *mcc.Sequence) (best int, pivots [2]mesh.Coord, npivots int, ok bool) {
	// The corner walk of Sequence.Corners, iterated in place: the slice it
	// materializes per call was a top allocation of the planned hot path.
	chain := seq.Chain
	first, last := chain[0].Corner(), chain[len(chain)-1].Opposite()
	consider := func(cost int, pv0, pv1 mesh.Coord, n int) {
		if !ok || cost < best {
			best, pivots[0], pivots[1], npivots, ok = cost, pv0, pv1, n, true
		}
	}
	// P_0: around the first component's initialization corner.
	if p.usable(first) {
		if rest, rok := p.dist(first); rok {
			consider(x.Manhattan(first)+rest, first, mesh.Coord{}, 1)
		}
	}
	// P_i: squeeze between consecutive components — (c'_i, c_{i+1}) pairs.
	for i := 0; i+1 < len(chain); i++ {
		ci, cnext := chain[i].Opposite(), chain[i+1].Corner()
		if !p.usable(ci) || !p.usable(cnext) {
			continue
		}
		if rest, rok := p.dist(cnext); rok {
			consider(x.Manhattan(ci)+ci.Manhattan(cnext)+rest, ci, cnext, 2)
		}
	}
	// P_n: around the last component's opposite corner.
	if p.usable(last) {
		if rest, rok := p.dist(last); rok {
			consider(x.Manhattan(last)+rest, last, mesh.Coord{}, 1)
		}
	}
	return best, pivots, npivots, ok
}

// plan runs Equations 2/3 from canonical position cu against an
// already-identified blocking sequence.
//
//meshlint:hotpath
func (p *planner) plan(cu mesh.Coord, seq *mcc.Sequence) planResult {
	d, pivots, n, ok := p.options(cu, seq)
	return planResult{dist: d, pivots: pivots, npivots: n, ok: ok}
}

// findSequenceFull is RB2's finder: under model B2 every node inside a
// forbidden region holds the full identified information, so the geometric
// query of package mcc is exactly what the node can compute.
//
//meshlint:hotpath
func findSequenceFull(e env, cu, cd mesh.Coord) *mcc.Sequence {
	return e.set.FindSequence(cu, cd)
}

// findSequenceB3 is RB3's finder: sequences are reconstructed from the
// triples and succeeding-MCC relations available at boundary nodes
// (Equation 5). Interior nodes without deposited information cannot
// identify sequences and route by Algorithm 2 alone — the source of RB3's
// sub-optimality that Figure 5(d) quantifies.
//
//meshlint:hotpath
func findSequenceB3(e env, cu, cd mesh.Coord) *mcc.Sequence {
	if !e.store.HasInfo(cu) {
		return nil
	}
	// Seeds: components whose triples are present at cu and whose extended
	// forbidden region contains cu (Equation 5's F(alpha) test).
	var bestSeq *mcc.Sequence
	for _, tr := range e.store.TriplesAt(cu) {
		seq := chainFromRelations(e, tr.F, tr.Kind.Axis(), cu, cd)
		if seq != nil && (bestSeq == nil || len(seq.Chain) < len(bestSeq.Chain)) {
			bestSeq = seq
		}
	}
	return bestSeq
}

// chainFromRelations follows recorded succeeding-MCC relations along axis
// a from a seed component until one covers the destination's line from
// below, per Equations 4/5. Unlike RB2's geometric search it cannot
// certify the chain with a DP — the node only has the records — so false
// positives cause detours that the evaluation measures.
//
//meshlint:hotpath
func chainFromRelations(e env, seed *mcc.MCC, a mcc.Axis, cu, cd mesh.Coord) *mcc.Sequence {
	if !seed.InForbidden(a, cu) {
		return nil
	}
	// The working chain lives in a small stack buffer: most calls fail
	// (no recorded chain reaches the destination's critical region), and
	// the failure path must not allocate — this runs once per planner
	// node evaluation. Membership is a linear scan over the chain built
	// so far (chains are a handful of components), replacing the
	// per-call dedup map. Only an identified sequence is copied out: it
	// escapes into the plan.
	var buf [8]*mcc.MCC
	chain := append(buf[:0], seed)
	onChain := func(id int) bool {
		for _, f := range chain {
			if f.ID == id {
				return true
			}
		}
		return false
	}
	cur := seed
	for range e.set.All() {
		if cur.InCritical(a, cd) {
			return &mcc.Sequence{Chain: append([]*mcc.MCC(nil), chain...), Axis: a} //meshlint:allow the identified sequence escapes into the plan; one copy per successful identification
		}
		if cur.InForbidden(a, cd) {
			return nil // destination is underneath the chain
		}
		// Equation 4: the successor with the minimal corner coordinate.
		var next *mcc.MCC
		bestKey := 0
		for _, g := range e.store.Successors(a, cur) {
			if onChain(g.ID) {
				continue
			}
			if _, key := a.Split(g.Corner()); next == nil || key < bestKey {
				next, bestKey = g, key
			}
		}
		if next == nil {
			return nil
		}
		chain = append(chain, next) //meshlint:allow spills past the 8-component stack buffer only for pathologically long chains
		cur = next
	}
	return nil
}
