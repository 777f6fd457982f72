package routing

import (
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// RebuildStats reports what a delta-scoped rebuild actually did, for the
// engine's rebuild counters (meshd_rebuild_cells_total on /metrics).
type RebuildStats struct {
	// Cells is the number of cells the labeling fixpoint examined across
	// all four orientations — the delta-scoped substitute for the 4*nodes
	// cells a full precompute labels.
	Cells int
}

// RebuildFrom builds the Analysis for fault set f — prev's configuration
// plus adds minus repairs — by delta-scoped reconstruction instead of a
// full precompute. Per orientation it re-runs the labeling fixpoint
// seeded from the delta's neighborhoods (labeling.Update), re-floods only
// MCC regions touching flipped cells (mcc.UpdateSet), replays untouched
// components' information-store contributions (info.Rebuild), and patches
// the flat wall bitsets at exactly the flipped positions. Untouched rows,
// regions, components, and whole stores are structurally shared with
// prev, which is never mutated — concurrent readers of the previous
// snapshot are unaffected.
//
// The result is identical to NewAnalysis(f, models...) — the
// rebuild-equivalence property test holds this to byte-identical labels,
// MCC sets, bitsets, and routed paths. As for NewAnalysis, no models means
// all three; prev must hold the stores of every model asked for.
func RebuildFrom(prev *Analysis, f *fault.Set, adds, repairs []mesh.Coord, models ...info.Model) (*Analysis, RebuildStats) {
	if len(models) == 0 {
		models = allModels
	}
	a := &Analysis{m: prev.m, faults: f}
	var st RebuildStats

	// Faulty bitset: copy and flip the delta positions.
	fb := append([]uint64(nil), prev.faultyBits...)
	for _, c := range adds {
		idx := a.m.Index(c)
		fb[idx>>6] |= 1 << (uint(idx) & 63)
	}
	for _, c := range repairs {
		idx := a.m.Index(c)
		fb[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	a.faultyBits = fb

	oAdds := make([]mesh.Coord, len(adds))
	oReps := make([]mesh.Coord, len(repairs))
	for o := mesh.Orient(0); o < mesh.NumOrients; o++ {
		for i, c := range adds {
			oAdds[i] = o.To(a.m, c)
		}
		for i, c := range repairs {
			oReps[i] = o.To(a.m, c)
		}
		res := labeling.Update(prev.Grid(o), oAdds, oReps)
		a.grids[o] = res.Grid
		st.Cells += res.Examined

		set, carried := mcc.UpdateSet(prev.MCCs(o), res.Grid, res.UnsafeFlipped)
		a.sets[o] = set

		if len(res.UnsafeFlipped) == 0 {
			// The orientation's safe/unsafe partition did not move: the
			// bitset and every store are valid as-is (stores read only
			// set geometry and Safe status).
			a.unsafeBits[o] = prev.unsafeBits[o]
			for _, mod := range models {
				a.stores[mod][o] = prev.Store(mod, o)
			}
			continue
		}
		ub := append([]uint64(nil), prev.unsafeBits[o]...)
		for _, c := range res.UnsafeFlipped {
			// UnsafeFlipped is in o's canonical frame; the bitset is
			// indexed in the original frame.
			idx := a.m.Index(o.From(a.m, c))
			ub[idx>>6] ^= 1 << (uint(idx) & 63)
		}
		a.unsafeBits[o] = ub
		for _, mod := range models {
			a.stores[mod][o] = info.Rebuild(prev.Store(mod, o), set, carried, res.UnsafeFlipped)
		}
	}
	return a, st
}
