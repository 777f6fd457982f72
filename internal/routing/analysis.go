// Package routing implements the paper's routing algorithms over the fault
// model, information models, and mesh substrate of the sibling packages:
//
//   - E-cube fault-tolerant routing (Boppana & Chalasani), the baseline of
//     Figure 5(e): dimension-order routing with wall-following detours
//     around fault regions.
//   - RB1 (Algorithm 3): Manhattan routing guided by B1 boundary triples
//     (Algorithm 2) with E-cube-style detours when blocked.
//   - RB2 (Algorithm 5): multi-phase shortest-path routing under the full
//     information model B2, choosing detour corners by the recursive
//     distance of Equations 2/3 over blocking sequences.
//   - RB3 (Algorithm 7): the same strategy under the practical model B3,
//     with sequences reconstructed from boundary-node relation records
//     (Equation 5).
//
// Every algorithm is simulated hop by hop: the decision at each node uses
// only that node's locally available knowledge (neighbor status, deposited
// triples, relation records), and the produced walk is measured against the
// BFS oracle — that measurement is Figures 5(d) and 5(e).
//
// The paper develops everything for travel toward +X/+Y and obtains the
// other quadrants "by simply rotating the mesh"; Analysis implements the
// rotation by holding the labeling, MCC geometry, and information stores
// for all four mesh.Orient frames of one fault set, all built before
// NewAnalysis returns.
package routing

import (
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// Analysis holds the per-orientation derived state for one fault
// configuration.
//
// # Concurrency model
//
// An Analysis is immutable once built: NewAnalysis (or RebuildFrom)
// constructs the labeling grids, MCC sets, wall bitsets and information
// stores before returning, and queries and routings never write them
// (routing walks keep all their state in per-call walk structures). It is
// therefore safe for unlimited concurrent readers (Route, Grid, MCCs,
// Store, ...) with no locking — the snapshot contract internal/engine
// builds on. Callers must also stop mutating the underlying fault.Set once
// the Analysis is shared.
type Analysis struct {
	m      mesh.Mesh
	faults *fault.Set

	grids  [mesh.NumOrients]*labeling.Grid
	sets   [mesh.NumOrients]*mcc.Set
	stores [3][mesh.NumOrients]*info.Store

	// Flat obstacle bitsets for the walk hot path, indexed by the node's
	// original-frame mesh.Index: faultyBits marks faulty nodes (the E-cube
	// and downgraded-detour wall), unsafeBits[o] marks nodes unsafe in the
	// canonical frame of orientation o (the MCC-region wall of RB1/RB2/RB3
	// detours).
	faultyBits []uint64
	unsafeBits [mesh.NumOrients][]uint64
}

// allModels is what an empty models argument means.
var allModels = []info.Model{info.B1, info.B2, info.B3}

// NewAnalysis builds the analysis of fault set f: for every orientation
// the labeling grid, the MCC set, the wall bitsets and the information
// stores of the given models. With no models it builds all three (B1, B2,
// B3); a model left out has no store, and routing an algorithm that needs
// it aborts (see Route).
func NewAnalysis(f *fault.Set, models ...info.Model) *Analysis {
	if len(models) == 0 {
		models = allModels
	}
	m := f.Mesh()
	a := &Analysis{m: m, faults: f, faultyBits: nodeBits(m, f.Faulty)}
	for o := mesh.Orient(0); o < mesh.NumOrients; o++ {
		g := labeling.Compute(f.Mirror(o))
		a.grids[o] = g
		a.sets[o] = mcc.Extract(g)
		a.unsafeBits[o] = nodeBits(m, func(c mesh.Coord) bool { return g.Unsafe(o.To(m, c)) })
		for _, mod := range models {
			a.stores[mod][o] = info.Build(mod, a.sets[o])
		}
	}
	return a
}

// nodeBits returns the flat bitset, indexed by original-frame
// mesh.Index, of the nodes of m that satisfy in.
func nodeBits(m mesh.Mesh, in func(mesh.Coord) bool) []uint64 {
	bits := make([]uint64, (m.Nodes()+63)/64)
	for idx := 0; idx < m.Nodes(); idx++ {
		if in(m.CoordOf(idx)) {
			bits[idx>>6] |= 1 << (uint(idx) & 63)
		}
	}
	return bits
}

// Mesh returns the analyzed topology.
func (a *Analysis) Mesh() mesh.Mesh { return a.m }

// Faults returns the fault set in original coordinates.
func (a *Analysis) Faults() *fault.Set { return a.faults }

// Grid returns the labeling for orientation o (canonical frame of o).
func (a *Analysis) Grid(o mesh.Orient) *labeling.Grid { return a.grids[o] }

// MCCs returns the MCC set for orientation o.
func (a *Analysis) MCCs(o mesh.Orient) *mcc.Set { return a.sets[o] }

// Store returns the information store of the given model for orientation
// o, or nil when the analysis was built without that model.
func (a *Analysis) Store(model info.Model, o mesh.Orient) *info.Store {
	return a.stores[model][o]
}

// env bundles the canonical-frame state one routing leg works against.
type env struct {
	orient mesh.Orient
	grid   *labeling.Grid
	set    *mcc.Set
	store  *info.Store
}

// envFor assembles the environment for a leg from u toward t under a model.
func (a *Analysis) envFor(u, t mesh.Coord, model info.Model) env {
	o := mesh.OrientFor(u, t)
	return env{orient: o, grid: a.Grid(o), set: a.MCCs(o), store: a.Store(model, o)}
}
