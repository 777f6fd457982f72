// Package info implements the paper's three fault-information models:
//
//   - B1 (Algorithm 1, from [5]): per MCC, two identification messages walk
//     the component's edge ring from the initialization corner to the
//     opposite corner and back; then boundary lines — the -X boundary south
//     along x = x_c and the -Y boundary west along y = y_c — carry the
//     triple (F, R, R') node by node, turning to join the boundaries of
//     other MCCs they intersect.
//   - B2 (Algorithm 4): B1 plus the +X boundary south along x = x_{c'} (and
//     its transposed +Y boundary), plus a flood that fills the forbidden
//     region between the two boundaries so every node inside can make the
//     globally correct detour decision.
//   - B3 (Algorithm 6): boundary lines only, but at each intersection with
//     another MCC the propagation splits around both sides of the
//     intersected component, and succeeding-MCC relations (Equation 4's
//     input) are recorded so boundary nodes can reconstruct blocking
//     sequences (Equation 5) without any flood.
//
// The propagation engine moves messages hop by hop along mesh links and
// accounts for exactly what Figure 5(c) measures: the set of nodes involved
// and the number of link crossings. Walk turn decisions use only what a
// real node knows locally — its own coordinate, the carried shape, and
// neighbor status — but are executed centrally for determinism; the
// justification for each turn's local computability is given inline.
//
// Deposited information is exposed through Store, which the routing
// algorithms query; which nodes hold which triples is the entire functional
// difference between RB1, RB2, and RB3.
package info

import (
	"fmt"
	"slices"

	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// Model names an information model.
type Model uint8

// The three information models of the paper.
const (
	// B1 is the boundary model of [5]: -X and -Y boundary lines only.
	B1 Model = iota
	// B2 is the paper's full model: both boundary pairs plus the forbidden
	// region flood.
	B2
	// B3 is the paper's practical extension: split boundary propagation
	// with relation records, no flood.
	B3
)

// String names the model as in the paper.
func (m Model) String() string {
	switch m {
	case B1:
		return "B1"
	case B2:
		return "B2"
	case B3:
		return "B3"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// Triple is one unit of boundary information stored at a node: the shape
// of an MCC together with the axis whose region pair it describes. Along
// AxisY it is (F, R_Y, R'_Y), guarding +Y (type-I, forbidden region below
// the component); along AxisX it is (F, R_X, R'_X), guarding +X (type-II,
// forbidden region west of it). The regions themselves are derived from
// the shape on demand (mcc.MCC.InForbidden and InCritical along Axis),
// exactly as a real node would compute them from the received shape
// description. A node holds at most one triple per component and axis,
// whichever boundary or flood brought it first.
type Triple struct {
	F    *mcc.MCC
	Axis mcc.Axis
}

// Store holds the outcome of one information model's propagation over one
// labeled (canonical-orientation) mesh. It is immutable once Build or
// Rebuild returns.
type Store struct {
	model Model
	m     mesh.Mesh
	set   *mcc.Set

	// The triples of node idx are arena[off[idx]:off[idx+1]], in deposit
	// order: one exactly sized table, with no slice header per node.
	arena []Triple
	off   []int32
	// succOf[a] holds the relations along axis a, keyed by predecessor MCC
	// ID. Globally indexed: the protocol distributes the records along
	// every boundary of the participating components, so any node holding
	// the component's triple may consult them.
	succOf [2]map[int][]*mcc.MCC

	participants int // propagation participants (Figure 5(c) numerator)
	messages     int64

	// logs[id] records component id's full contribution (footprint,
	// deposits, relations, accounting) so Rebuild can replay it verbatim
	// when a fault delta provably cannot have changed it. The tables above
	// are derived from the logs alone.
	logs []*compLog
}

// depRec is one accepted deposit of the logging component: the triple's F
// is always the walking component itself, so only position and axis need
// recording.
type depRec struct {
	idx  int32
	axis mcc.Axis
}

// relRec is one accepted succeeding-MCC relation of the logging
// component; the walking component is always the successor.
type relRec struct {
	pred *mcc.MCC
	axis mcc.Axis
}

// compLog is the exact contribution of one component's propagation
// stage. The walks derive every decision from the component's own shape,
// the shapes of the components they intersect (reads), and the safe
// status of the positions they touch (footprint); if none of those
// changed across a fault delta, replaying the log reproduces the stage
// bit for bit. The footprint is read only as a set, so it holds a
// position once; its safe positions are the stage's participants.
// Deposits and relations are logged post-dedup, so replay is pure
// appends.
type compLog struct {
	footprint []int32    // in-mesh positions whose safe/membership status was consulted
	deposits  []depRec   // accepted deposits, in order
	reads     []*mcc.MCC // components whose shape the walks consulted
	relations []relRec   // accepted relation records, in order
	messages  int64      // link crossings charged
}

// Model returns which information model built the store.
func (s *Store) Model() Model { return s.model }

// Set returns the MCC set the store describes.
func (s *Store) Set() *mcc.Set { return s.set }

// TriplesAt returns the triples stored at node u (nil for none).
func (s *Store) TriplesAt(u mesh.Coord) []Triple {
	if !s.m.In(u) {
		return nil
	}
	idx := s.m.Index(u)
	lo, hi := s.off[idx], s.off[idx+1]
	if lo == hi {
		return nil
	}
	return s.arena[lo:hi:hi]
}

// HasInfo reports whether node u holds any boundary information — the
// paper's "boundary node" test that gates RB3's sequence reconstruction.
func (s *Store) HasInfo(u mesh.Coord) bool { return len(s.TriplesAt(u)) > 0 }

// Successors returns the recorded succeeding components of f along a
// (type-I for AxisY, type-II for AxisX).
func (s *Store) Successors(a mcc.Axis, f *mcc.MCC) []*mcc.MCC { return s.succOf[a][f.ID] }

// Participants returns how many distinct nodes the propagation touched.
func (s *Store) Participants() int { return s.participants }

// Messages returns the number of link crossings of the propagation.
func (s *Store) Messages() int64 { return s.messages }

// Build constructs the chosen information model over an MCC set. Every
// component's contribution is logged as it executes, so a later Rebuild
// against a fault delta can replay untouched components instead of
// re-walking them.
func Build(model Model, set *mcc.Set) *Store {
	return buildWith(model, set, make([]*compLog, set.Len()))
}

// buildWith is the one construction path of Build and Rebuild: it runs the
// stage of every component whose logs entry is nil, in ID order, then
// derives the store's tables from the logs. A replayed log therefore
// lands exactly where re-walking its component would have put it.
func buildWith(model Model, set *mcc.Set, logs []*compLog) *Store {
	m := set.Grid().Mesh()
	b := &builder{
		Store: &Store{model: model, m: m, set: set, logs: logs},
		grid:  set.Grid(),
		stamp: make([]uint32, m.Nodes()),
		mask:  make([]uint8, m.Nodes()),
	}
	for _, f := range set.All() {
		if logs[f.ID] == nil {
			logs[f.ID] = b.stage(f)
		}
	}
	b.assemble()
	return b.Store
}

// builder carries one build's scratch: per-node marks of the current
// stage and the stage's log buffers, both reused across components.
type builder struct {
	*Store
	grid *labeling.Grid
	// mask[idx] holds node idx's marks for the current stage and is valid
	// only while stamp[idx] == epoch, so opening a stage is one counter
	// bump rather than an O(nodes) clear.
	stamp []uint32
	mask  []uint8
	epoch uint32
	// lg collects the current stage's log; stage copies it out at exact
	// size.
	lg compLog
	// lim and queue are the flood's region thresholds and BFS queue.
	lim   []int32
	queue []int32
}

// Stage marks of a node: bit a (1<<a) records a deposited triple along
// axis a, which is also the flood's visited mark for that axis, and
// markFootprint records the node in the stage footprint.
const markFootprint uint8 = 1 << 2

// mark sets bit among node idx's stage marks and reports whether it was
// clear.
func (b *builder) mark(idx int, bit uint8) bool {
	if b.stamp[idx] != b.epoch {
		b.stamp[idx] = b.epoch
		b.mask[idx] = bit
		return true
	}
	if b.mask[idx]&bit != 0 {
		return false
	}
	b.mask[idx] |= bit
	return true
}

// stage runs component f's whole propagation — identification walks,
// boundary lines and, under B2, the floods — and returns its log.
func (b *builder) stage(f *mcc.MCC) *compLog {
	b.epoch++
	b.lg = compLog{
		footprint: b.lg.footprint[:0],
		deposits:  b.lg.deposits[:0],
		reads:     b.lg.reads[:0],
		relations: b.lg.relations[:0],
	}
	// The store digests hash deposit order, which is walk order: -X, -Y,
	// then under B2 +X, +Y and the two floods.
	b.identificationWalks(f)
	var joined [2][]*mcc.MCC
	for _, a := range mcc.Axes {
		joined[a] = b.boundaryMinus(f, a, b.model == B3)
	}
	if b.model == B2 {
		for _, a := range mcc.Axes {
			joined[a] = append(joined[a], b.boundaryPlus(f, a)...)
		}
		for _, a := range mcc.Axes {
			b.flood(f, joined[a], a)
		}
	}
	return &compLog{
		footprint: slices.Clone(b.lg.footprint),
		deposits:  slices.Clone(b.lg.deposits),
		reads:     slices.Clone(b.lg.reads),
		relations: slices.Clone(b.lg.relations),
		messages:  b.lg.messages,
	}
}

// visit records a node as touched by the propagation and charges one link
// crossing (hop == true) when the visit came over a link.
func (b *builder) visit(c mesh.Coord, hop bool) {
	if hop {
		b.lg.messages++
	}
	if b.m.In(c) {
		b.logFootprint(b.m.Index(c))
	}
}

func (b *builder) logFootprint(idx int) {
	if b.mark(idx, markFootprint) {
		b.lg.footprint = append(b.lg.footprint, int32(idx))
	}
}

// readComp records that the current component's walk consulted g's shape.
func (b *builder) readComp(g *mcc.MCC) {
	if g != nil && !slices.Contains(b.lg.reads, g) {
		b.lg.reads = append(b.lg.reads, g)
	}
}

// deposit stores the walking component's triple along axis a at c unless
// c already holds it (nodes "will not accept duplicates from their
// neighbors"), whichever boundary or flood brought the first copy. Only
// the walking component's stage deposits its triples, so the stage's axis
// marks decide duplicates. The footprint is not re-logged: every deposit
// site was visited by the same stage immediately before.
func (b *builder) deposit(c mesh.Coord, a mcc.Axis) {
	if b.grid.Safe(c) {
		b.depositAt(b.m.Index(c), a)
	}
}

// depositAt is deposit at a safe node's index. It reports whether the
// node accepted the triple.
func (b *builder) depositAt(idx int, a mcc.Axis) bool {
	if !b.mark(idx, 1<<a) {
		return false
	}
	b.lg.deposits = append(b.lg.deposits, depRec{idx: int32(idx), axis: a})
	return true
}

// addRelation records pred -> the walking component along axis a,
// deduplicated.
func (b *builder) addRelation(pred *mcc.MCC, a mcc.Axis) {
	r := relRec{pred: pred, axis: a}
	if !slices.Contains(b.lg.relations, r) {
		b.lg.relations = append(b.lg.relations, r)
	}
}

// assemble derives the store's tables from the component logs, walked in
// ID order: the accounting, the relation tables, and the triple table,
// filled by a counting sort into one exactly sized arena. Participants
// are the safe nodes of the footprints' union: Figure 5(c)'s ratio is over
// the safe population, and an unsafe position on an idealized relay
// segment is not a node that does protocol work. A replayed footprint
// avoids every flipped cell, so its safe nodes are the ones its stage
// visited.
func (b *builder) assemble() {
	s := b.Store
	for _, a := range mcc.Axes {
		s.succOf[a] = make(map[int][]*mcc.MCC)
	}
	s.off = make([]int32, s.m.Nodes()+1)
	b.epoch++ // fresh marks count each participant once
	for _, f := range s.set.All() {
		lg := s.logs[f.ID]
		s.messages += lg.messages
		for _, idx := range lg.footprint {
			if b.mark(int(idx), markFootprint) && b.grid.Safe(s.m.CoordOf(int(idx))) {
				s.participants++
			}
		}
		for _, r := range lg.relations {
			tbl := s.succOf[r.axis]
			tbl[r.pred.ID] = append(tbl[r.pred.ID], f)
		}
		for _, d := range lg.deposits {
			s.off[d.idx]++
		}
	}
	// off[idx] becomes the end of idx's run; filling in reverse deposit
	// order then walks every end back to its run's start.
	for idx := 1; idx < len(s.off); idx++ {
		s.off[idx] += s.off[idx-1]
	}
	s.arena = make([]Triple, s.off[len(s.off)-1])
	all := s.set.All()
	for i := len(all) - 1; i >= 0; i-- {
		deps := s.logs[all[i].ID].deposits
		for j := len(deps) - 1; j >= 0; j-- {
			d := deps[j]
			s.off[d.idx]--
			s.arena[s.off[d.idx]] = Triple{F: all[i], Axis: d.axis}
		}
	}
}
