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
// rotation by maintaining the labeling, MCC geometry, and information
// stores for all four mesh.Orient frames of one fault set, built lazily.
package routing

import (
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// Analysis caches the per-orientation derived state for one fault
// configuration.
//
// # Concurrency model
//
// An Analysis is immutable after build: the labeling grids, MCC sets, and
// information stores it holds are constructed once and never mutated by
// queries or routings (routing walks keep all their state in per-call walk
// structures). The only mutation Analysis itself performs is filling its
// lazy per-orientation caches on first access, which makes the *lazy* form
// single-threaded. Call Precompute to force every cache eagerly; after
// Precompute returns, the Analysis is safe for unlimited concurrent readers
// (Route, Grid, MCCs, Store, ...) with no locking — this is the snapshot
// contract internal/engine builds on. Callers must also stop mutating the
// underlying fault.Set once the Analysis is shared.
type Analysis struct {
	m      mesh.Mesh
	faults *fault.Set
	policy labeling.BorderPolicy

	grids  [mesh.NumOrients]*labeling.Grid
	sets   [mesh.NumOrients]*mcc.Set
	stores [3][mesh.NumOrients]*info.Store

	// Flat obstacle bitsets for the walk hot path, indexed by the node's
	// original-frame mesh.Index: faultyBits marks faulty nodes (the E-cube
	// and downgraded-detour wall), unsafeBits[o] marks nodes unsafe in the
	// canonical frame of orientation o (the MCC-region wall of RB1/RB2/RB3
	// detours). Built with the same lazy-then-Precompute contract as the
	// grids.
	faultyBits []uint64
	unsafeBits [mesh.NumOrients][]uint64
}

// NewAnalysis prepares lazy per-orientation analyses of the fault set under
// the default BorderSafe labeling policy.
func NewAnalysis(f *fault.Set) *Analysis {
	return &Analysis{m: f.Mesh(), faults: f, policy: labeling.BorderSafe}
}

// NewAnalysisWithPolicy selects the labeling border policy (ablation).
func NewAnalysisWithPolicy(f *fault.Set, p labeling.BorderPolicy) *Analysis {
	return &Analysis{m: f.Mesh(), faults: f, policy: p}
}

// Mesh returns the analyzed topology.
func (a *Analysis) Mesh() mesh.Mesh { return a.m }

// Faults returns the fault set in original coordinates.
func (a *Analysis) Faults() *fault.Set { return a.faults }

// Grid returns the labeling for orientation o (canonical frame of o).
func (a *Analysis) Grid(o mesh.Orient) *labeling.Grid {
	if a.grids[o] == nil {
		a.grids[o] = labeling.Compute(a.faults.Mirror(o), a.policy)
	}
	return a.grids[o]
}

// MCCs returns the MCC set for orientation o.
func (a *Analysis) MCCs(o mesh.Orient) *mcc.Set {
	if a.sets[o] == nil {
		a.sets[o] = mcc.Extract(a.Grid(o))
	}
	return a.sets[o]
}

// faultyMask returns the flat faulty bitset (original-frame indices),
// building it on first use.
func (a *Analysis) faultyMask() []uint64 {
	if a.faultyBits == nil {
		bits := make([]uint64, (a.m.Nodes()+63)/64)
		for idx := 0; idx < a.m.Nodes(); idx++ {
			if a.faults.Faulty(a.m.CoordOf(idx)) {
				bits[idx>>6] |= 1 << (uint(idx) & 63)
			}
		}
		a.faultyBits = bits
	}
	return a.faultyBits
}

// unsafeMask returns the flat bitset of nodes (original-frame indices)
// that are unsafe in the canonical frame of orientation o, building it on
// first use.
func (a *Analysis) unsafeMask(o mesh.Orient) []uint64 {
	if a.unsafeBits[o] == nil {
		g := a.Grid(o)
		bits := make([]uint64, (a.m.Nodes()+63)/64)
		for idx := 0; idx < a.m.Nodes(); idx++ {
			if g.Unsafe(o.To(a.m, a.m.CoordOf(idx))) {
				bits[idx>>6] |= 1 << (uint(idx) & 63)
			}
		}
		a.unsafeBits[o] = bits
	}
	return a.unsafeBits[o]
}

// Store returns the information store of the given model for orientation o.
func (a *Analysis) Store(model info.Model, o mesh.Orient) *info.Store {
	if a.stores[model][o] == nil {
		a.stores[model][o] = info.Build(model, a.MCCs(o))
	}
	return a.stores[model][o]
}

// Precompute eagerly builds the labeling grid, MCC set, and the given
// information stores for every orientation, then returns a. With no models
// it builds all three (B1, B2, B3). Afterwards every query path is
// read-only and the Analysis may be shared freely across goroutines.
func (a *Analysis) Precompute(models ...info.Model) *Analysis {
	if len(models) == 0 {
		models = []info.Model{info.B1, info.B2, info.B3}
	}
	a.faultyMask()
	for o := mesh.Orient(0); o < mesh.NumOrients; o++ {
		a.Grid(o)
		a.MCCs(o)
		a.unsafeMask(o)
		for _, mod := range models {
			a.Store(mod, o)
		}
	}
	return a
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
