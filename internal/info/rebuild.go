package info

import (
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// Rebuild constructs the store Build(prev.Model(), set) would produce,
// replaying the logged contribution of every component whose inputs the
// fault delta provably did not touch and re-walking only the rest. It is
// the one incremental stage of a commit: labels and components are
// recomputed from the faults, and only the stores replay.
// bench/replay.go calls it, which fixes its signature.
//
// Arguments: prev is the store over the previous snapshot's MCC set,
// set the new set, carried the old-to-new component provenance from
// mcc.UpdateSet (each previous component whose exact cells form a
// component of set, mapped to it), and flipped the cells whose
// safe/unsafe status changed (labeling.UpdateResult.UnsafeFlipped, in
// the store's canonical frame).
//
// A component's contribution replays when
//
//   - it survived the delta (present in carried, possibly under another
//     ID: walks depend on shape, not identity),
//   - its footprint — every position whose safe status or component
//     membership the walks and floods consulted — avoids every flipped
//     cell, and
//   - every component whose shape it read also survived.
//
// Under those conditions the walk would re-execute identically, so its
// log is reused verbatim (with component pointers remapped to the new
// set). Build and Rebuild share one construction path that derives every
// table from the logs in new-ID order, so triple lists and relation
// tables come out in the order a from-scratch Build produces — routing
// behavior that is order-sensitive (findSequenceB3 tie-breaks) sees no
// difference. prev is never mutated; replayed logs are shared read-only.
func Rebuild(prev *Store, set *mcc.Set, carried map[*mcc.MCC]*mcc.MCC, flipped []mesh.Coord) *Store {
	dirty := make([]bool, prev.m.Nodes())
	for _, c := range flipped {
		dirty[prev.m.Index(c)] = true
	}
	reverse := make(map[*mcc.MCC]*mcc.MCC, len(carried)) // new -> old
	for old, nw := range carried {
		reverse[nw] = old
	}
	logs := make([]*compLog, set.Len())
	for _, f := range set.All() {
		old := reverse[f]
		if old == nil {
			continue
		}
		lg := prev.logs[old.ID]
		ok := true
		for _, idx := range lg.footprint {
			if dirty[idx] {
				ok = false
				break
			}
		}
		if ok {
			for _, g := range lg.reads {
				if carried[g] == nil {
					ok = false
					break
				}
			}
		}
		if ok {
			logs[f.ID] = remapLog(lg, carried)
		}
	}
	return buildWith(prev.model, set, logs)
}

// remapLog rewrites a reusable log's component pointers into the new set
// via the provenance map; position-keyed slices are shared read-only.
func remapLog(lg *compLog, carried map[*mcc.MCC]*mcc.MCC) *compLog {
	nl := &compLog{
		footprint: lg.footprint,
		deposits:  lg.deposits,
		messages:  lg.messages,
		reads:     make([]*mcc.MCC, len(lg.reads)),
	}
	for i, g := range lg.reads {
		nl.reads[i] = carried[g]
	}
	if len(lg.relations) > 0 {
		nl.relations = make([]relRec, len(lg.relations))
		for i, r := range lg.relations {
			nl.relations[i] = relRec{pred: carried[r.pred], axis: r.axis}
		}
	}
	return nl
}
