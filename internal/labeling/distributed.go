package labeling

import (
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/simnet"
)

// flagsMsg is the neighbor-status exchange of the distributed labeling
// process: "each active node collects its neighbors' status and updates its
// status".
type flagsMsg struct {
	fl flags
}

// distState is the per-node view a node accumulates of its four neighbors.
type distState struct {
	neighbor [5]flags // indexed by mesh.Direction
}

// ComputeDistributed runs the labeling as an actual message-passing
// protocol on simnet and returns the protocol's grid plus the network used
// (for metric inspection). Every node starts by announcing its flags to all
// neighbors; a node that gains a label re-announces. Convergence is
// quiescence of the network.
//
// The result must equal Compute exactly — both engines compute the same
// pair of monotone closures — and the equality is enforced by tests, which
// is the evidence that the paper's "fully distributed process" and our
// centralized geometry agree. The grid is returned as the protocol left
// it, so a run that exhausts its round bound shows up there as a
// half-labeled grid.
func ComputeDistributed(f *fault.Set) (*Grid, *simnet.Network) {
	m := f.Mesh()
	g := &Grid{m: m, label: make([]flags, m.Nodes())}
	// Every neighbor view starts safe: a missing border neighbor stays safe
	// for good (as in Compute), and a real one is assumed safe until
	// announced otherwise — the rules are monotone, so assuming safe can
	// only delay a label, never produce a wrong one.
	states := make([]distState, m.Nodes())
	for idx := range g.label {
		if f.Faulty(m.CoordOf(idx)) {
			g.label[idx] = fFaulty
		}
	}

	announce := func(out *simnet.Outbox, fl flags) {
		for _, d := range mesh.Directions {
			out.SendDir(d, flagsMsg{fl: fl})
		}
	}

	// evaluate re-applies the labeling rules to a node's current neighbor
	// view; any gained label is announced so neighbors re-evaluate in turn.
	evaluate := func(idx int, out *simnet.Outbox) {
		fl := g.label[idx]
		if fl&fFaulty != 0 {
			return
		}
		st := &states[idx]
		add := flags(0)
		if fl&fUseless == 0 &&
			st.neighbor[mesh.PlusX].uselessFuel() && st.neighbor[mesh.PlusY].uselessFuel() {
			add |= fUseless
		}
		if fl&fCantReach == 0 &&
			st.neighbor[mesh.MinusX].cantReachFuel() && st.neighbor[mesh.MinusY].cantReachFuel() {
			add |= fCantReach
		}
		if add == 0 {
			return
		}
		g.label[idx] = fl | add
		announce(out, fl|add)
	}

	net := simnet.New(m, simnet.HandlerFunc(func(_ *simnet.Network, msg simnet.Message, out *simnet.Outbox) {
		idx := m.Index(out.At())
		if msg.From == msg.To {
			// Bootstrap: announce own status, then self-evaluate — border
			// nodes may already satisfy a rule via virtual neighbors.
			announce(out, g.label[idx])
			evaluate(idx, out)
			return
		}
		dir, _ := out.At().DirTo(msg.From)
		fm := msg.Payload.(flagsMsg)
		if states[idx].neighbor[dir] == fm.fl {
			return // no new information
		}
		states[idx].neighbor[dir] |= fm.fl
		evaluate(idx, out)
	}))

	// Every node bootstraps; the network quiesces once no labels change.
	m.EachNode(func(c mesh.Coord) { net.Post(c, flagsMsg{}) })
	// Label chains are at most W+H long and each link carries O(1) distinct
	// flag values, so this bound is generous.
	net.Run(8 * (m.Width() + m.Height() + 2))
	for idx, fl := range g.label {
		if fl.unsafe() {
			g.unsafe = append(g.unsafe, idx)
		}
	}
	return g, net
}
