// Package labeling implements the MCC node-status labeling procedure of the
// paper's Preliminary section (originating in Wang's rectilinear-monotone
// fault block model):
//
//	Initially, label all faulty nodes as faulty and all non-faulty nodes as
//	safe. If a node is safe, but its +X neighbor and +Y neighbor are faulty
//	or useless, it is labeled useless. If the -X neighbor and -Y neighbor
//	are faulty or can't-reach, such a safe node is labeled can't-reach. The
//	nodes are iteratively labeled until there is no new useless or
//	can't-reach node.
//
// Faulty, useless, and can't-reach nodes are collectively *unsafe*; the
// rest are *safe*. The labeling is specific to the canonical +X/+Y travel
// quadrant; callers mirror the fault set per mesh.Orient first.
//
// # Interpretation note (dual closures)
//
// As literally stated, the two rules compete: a node labeled useless stops
// being "safe" and can then never be labeled can't-reach, so the final
// label kind — and transitively the labels of nodes downstream of it —
// would depend on the processing schedule, which cannot be the intent of a
// fully distributed process. We therefore compute the two label kinds as
// independent monotone closures (useless propagates over faulty∪useless,
// can't-reach over faulty∪can't-reach) and allow a node to hold both
// labels. This is deterministic, schedule-independent, and agrees with the
// rules wherever they are unambiguous; the distributed engine is tested for
// exact equality with the centralized one on random fault fields.
//
// Two engines are provided: a centralized worklist fixpoint (Compute) used
// by the geometry and evaluation layers, and a distributed round-based
// engine (ComputeDistributed) that reproduces the paper's "each active node
// collects its neighbors' status and updates its status" process.
package labeling

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// Status is the displayed label of one node under the MCC model. A node
// satisfying both relabeling rules reports Useless (the first rule in the
// paper's text); use Grid.IsUseless / Grid.IsCantReach for the underlying
// flags.
type Status uint8

// Node status values.
const (
	// Safe nodes are healthy and usable by minimal routing.
	Safe Status = iota
	// Faulty nodes have failed.
	Faulty
	// Useless nodes are healthy, but once a (+X/+Y-going) routing enters
	// one, the next move must take a -X/-Y direction, making the route
	// non-shortest.
	Useless
	// CantReach nodes are healthy, but entering one requires a -X/-Y move,
	// making the route non-shortest.
	CantReach
)

// String names the status as in the paper.
func (s Status) String() string {
	switch s {
	case Safe:
		return "safe"
	case Faulty:
		return "faulty"
	case Useless:
		return "useless"
	case CantReach:
		return "can't-reach"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Unsafe reports whether the status is faulty, useless, or can't-reach.
func (s Status) Unsafe() bool { return s != Safe }

// flags is the internal per-node label set.
type flags uint8

const (
	fFaulty flags = 1 << iota
	fUseless
	fCantReach
)

func (f flags) unsafe() bool { return f != 0 }

// uselessFuel reports whether a neighbor with these flags feeds the
// useless rule ("faulty or useless").
func (f flags) uselessFuel() bool { return f&(fFaulty|fUseless) != 0 }

// cantReachFuel reports whether a neighbor with these flags feeds the
// can't-reach rule ("faulty or can't-reach").
func (f flags) cantReachFuel() bool { return f&(fFaulty|fCantReach) != 0 }

func (f flags) status() Status {
	switch {
	case f&fFaulty != 0:
		return Faulty
	case f&fUseless != 0:
		return Useless
	case f&fCantReach != 0:
		return CantReach
	}
	return Safe
}

// Grid holds the converged labeling of every node of a mesh for the
// canonical +X/+Y orientation.
type Grid struct {
	m      mesh.Mesh
	label  []flags
	unsafe int
}

// Mesh returns the labeled mesh.
func (g *Grid) Mesh() mesh.Mesh { return g.m }

// flagsAt returns the flag set of c; out-of-mesh coordinates read safe
// (see flagsAtRaw) so geometric code can query uniformly.
func (g *Grid) flagsAt(c mesh.Coord) flags { return flagsAtRaw(g.m, g.label, c) }

// Status returns the displayed label of c.
func (g *Grid) Status(c mesh.Coord) Status { return g.flagsAt(c).status() }

// IsUseless reports whether c carries the useless label (possibly alongside
// can't-reach).
func (g *Grid) IsUseless(c mesh.Coord) bool { return g.flagsAt(c)&fUseless != 0 }

// IsCantReach reports whether c carries the can't-reach label (possibly
// alongside useless).
func (g *Grid) IsCantReach(c mesh.Coord) bool { return g.flagsAt(c)&fCantReach != 0 }

// Unsafe reports whether c is labeled faulty, useless, or can't-reach.
// Out-of-mesh coordinates read safe.
func (g *Grid) Unsafe(c mesh.Coord) bool { return g.flagsAt(c).unsafe() }

// Safe reports whether c is inside the mesh and labeled safe.
func (g *Grid) Safe(c mesh.Coord) bool { return g.m.In(c) && !g.Unsafe(c) }

// UnsafeCount returns the number of unsafe nodes — the "disabled area" of
// Figure 5(a).
func (g *Grid) UnsafeCount() int { return g.unsafe }

// SafeCount returns the number of safe nodes.
func (g *Grid) SafeCount() int { return g.m.Nodes() - g.unsafe }

// uselessRule reports whether a node at c currently satisfies the useless
// rule: +X neighbor and +Y neighbor faulty or useless.
func uselessRule(m mesh.Mesh, label []flags, c mesh.Coord) bool {
	return flagsAtRaw(m, label, c.Step(mesh.PlusX)).uselessFuel() &&
		flagsAtRaw(m, label, c.Step(mesh.PlusY)).uselessFuel()
}

// cantReachRule reports whether a node at c currently satisfies the
// can't-reach rule: -X neighbor and -Y neighbor faulty or can't-reach.
func cantReachRule(m mesh.Mesh, label []flags, c mesh.Coord) bool {
	return flagsAtRaw(m, label, c.Step(mesh.MinusX)).cantReachFuel() &&
		flagsAtRaw(m, label, c.Step(mesh.MinusY)).cantReachFuel()
}

// flagsAtRaw returns the flag set of c. The paper never says how the rules
// treat the missing neighbors of mesh-border nodes; here a missing
// neighbor reads safe, so labels never propagate from the mesh border and
// the destination corner of the mesh stays routable, consistent with the
// MCC minimality argument. Reading it as faulty, the convention of some
// rectangular-block papers, would label the extreme corners useless and
// can't-reach even in a fault-free mesh, and the labels would cascade over
// the whole mesh.
func flagsAtRaw(m mesh.Mesh, label []flags, c mesh.Coord) flags {
	if !m.In(c) {
		return 0
	}
	return label[m.Index(c)]
}

// Compute runs the labeling to fixpoint with a worklist: only nodes whose
// neighborhood changed are re-examined, mirroring the paper's "only those
// affected nodes update their status". The two label closures are monotone,
// so the result is schedule-independent; the distributed engine's equality
// test exercises exactly that.
func Compute(f *fault.Set) *Grid {
	m := f.Mesh()
	g := &Grid{m: m, label: make([]flags, m.Nodes())}
	for idx := range g.label {
		if f.Faulty(m.CoordOf(idx)) {
			g.label[idx] = fFaulty
			g.unsafe++
		}
	}

	work := make([]int, 0, m.Nodes())
	inWork := make([]bool, m.Nodes())
	for idx, fl := range g.label {
		if fl&fFaulty == 0 {
			work = append(work, idx)
			inWork[idx] = true
		}
	}

	for len(work) > 0 {
		next := work[:0:0]
		for _, idx := range work {
			inWork[idx] = false
		}
		for _, idx := range work {
			fl := g.label[idx]
			if fl&fFaulty != 0 {
				continue
			}
			c := m.CoordOf(idx)
			add := flags(0)
			if fl&fUseless == 0 && uselessRule(m, g.label, c) {
				add |= fUseless
			}
			if fl&fCantReach == 0 && cantReachRule(m, g.label, c) {
				add |= fCantReach
			}
			if add == 0 {
				continue
			}
			if fl == 0 {
				g.unsafe++
			}
			g.label[idx] = fl | add
			for _, d := range mesh.Directions {
				if n, ok := m.Neighbor(c, d); ok {
					ni := m.Index(n)
					if g.label[ni]&fFaulty == 0 && !inWork[ni] {
						next = append(next, ni)
						inWork[ni] = true
					}
				}
			}
		}
		work = next
	}
	return g
}

// Counts returns how many nodes display each status (a dual-labeled node
// counts once, as useless, per Status precedence).
func (g *Grid) Counts() (safe, faulty, useless, cantReach int) {
	for _, fl := range g.label {
		switch fl.status() {
		case Safe:
			safe++
		case Faulty:
			faulty++
		case Useless:
			useless++
		case CantReach:
			cantReach++
		}
	}
	return
}

// Fixpoint verifies that no node still satisfies an unapplied labeling
// rule. It is the central invariant used by property tests.
func (g *Grid) Fixpoint() bool {
	ok := true
	g.m.EachNode(func(c mesh.Coord) {
		fl := g.label[g.m.Index(c)]
		if fl&fFaulty != 0 {
			return
		}
		if fl&fUseless == 0 && uselessRule(g.m, g.label, c) {
			ok = false
		}
		if fl&fCantReach == 0 && cantReachRule(g.m, g.label, c) {
			ok = false
		}
	})
	return ok
}

// Equal reports whether two grids assign the identical flag set to every
// node.
func (g *Grid) Equal(o *Grid) bool {
	if g.m != o.m || len(g.label) != len(o.label) {
		return false
	}
	for i := range g.label {
		if g.label[i] != o.label[i] {
			return false
		}
	}
	return true
}
