package routing

import (
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// RebuildFrom builds the Analysis for fault set f — prev's configuration
// plus adds minus repairs — without a full precompute of the information
// stores. Per orientation it recomputes the labeling from the faults
// (labeling.Update) and the MCCs from the labels (mcc.UpdateSet, which
// pairs every unchanged component with its predecessor), replays the
// information-store contributions of components the delta provably did
// not touch (info.Rebuild, the one incremental stage), and patches the
// flat wall bitsets at exactly the flipped positions. An orientation
// whose safe/unsafe partition did not move keeps prev's bitset and
// stores. prev is never mutated — concurrent readers of the previous
// snapshot are unaffected.
//
// The result is identical to NewAnalysis(f, models...) — the
// rebuild-equivalence property test holds this to byte-identical labels,
// MCC sets, bitsets, and routed paths. As for NewAnalysis, no models means
// all three; prev must hold the stores of every model asked for.
func RebuildFrom(prev *Analysis, f *fault.Set, adds, repairs []mesh.Coord, models ...info.Model) *Analysis {
	if len(models) == 0 {
		models = allModels
	}
	a := &Analysis{m: prev.m, faults: f}

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
	return a
}
