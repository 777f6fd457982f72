// Package simnet is the message-passing substrate the distributed
// algorithms of this repository run on. It models the communication
// behaviour the paper assumes of a mesh multicomputer: nodes exchange
// messages only with their four mesh neighbors, and a fully distributed
// process advances by nodes reacting to arriving messages.
//
// The model is synchronous and deterministic: messages sent during round k
// are delivered at the start of round k+1; within a round, nodes process
// their inboxes in row-major node order and each inbox in arrival order.
// Determinism is a test requirement — the distributed labeling and boundary
// protocols are verified byte-for-byte against centralized references.
//
// The simulator accounts for exactly the quantities the paper's Figure 5(c)
// evaluates: which nodes participated in a propagation and how many
// messages crossed links.
package simnet

import (
	"fmt"

	"repro/internal/mesh"
)

// Message is one unit of communication crossing a single mesh link
// (or injected locally at a node when From == To).
type Message struct {
	From, To mesh.Coord
	Payload  any
}

// Handler reacts to a message arriving at a node. Implementations receive
// an Outbox bound to the destination node and may emit messages to the
// node's mesh neighbors.
type Handler interface {
	Deliver(net *Network, msg Message, out *Outbox)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, msg Message, out *Outbox)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(net *Network, msg Message, out *Outbox) { f(net, msg, out) }

// Network is a synchronous message-passing simulation over a mesh.
type Network struct {
	m       mesh.Mesh
	handler Handler

	inbox   [][]Message // messages to process this round, per node index
	pending [][]Message // messages for next round, per node index
	active  []int       // node indices with non-empty inbox, sorted

	rounds       int
	messages     int64 // link crossings (From != To)
	participated []bool
	participants int
}

// New builds a network over m whose nodes all run handler.
func New(m mesh.Mesh, handler Handler) *Network {
	return &Network{
		m:            m,
		handler:      handler,
		inbox:        make([][]Message, m.Nodes()),
		pending:      make([][]Message, m.Nodes()),
		participated: make([]bool, m.Nodes()),
	}
}

// Mesh returns the underlying topology.
func (n *Network) Mesh() mesh.Mesh { return n.m }

// Post injects a message to be processed at node `at` in the next round.
// It is how protocols bootstrap (e.g. an initialization corner starting an
// identification walk). Post panics on out-of-mesh destinations: protocol
// code must bounds-check before addressing.
func (n *Network) Post(at mesh.Coord, payload any) {
	idx := n.m.Index(at)
	n.pending[idx] = append(n.pending[idx], Message{From: at, To: at, Payload: payload})
}

// Outbox collects the messages a node emits while handling one delivery.
type Outbox struct {
	net *Network
	at  mesh.Coord
}

// At returns the node this outbox belongs to.
func (o *Outbox) At() mesh.Coord { return o.at }

// Send emits a message from the outbox's node to one of its four mesh
// neighbors, enforcing the paper's locality: long-distance information
// travel must be built from per-hop forwarding. It returns false (dropping
// the message) when `to` is outside the mesh, so walkers can probe borders
// without pre-checking.
func (o *Outbox) Send(to mesh.Coord, payload any) bool {
	if !o.net.m.In(to) {
		return false
	}
	if _, adjacent := o.at.DirTo(to); !adjacent {
		panic(fmt.Sprintf("simnet: node %v attempted non-neighbor send to %v", o.at, to))
	}
	idx := o.net.m.Index(to)
	o.net.pending[idx] = append(o.net.pending[idx], Message{From: o.at, To: to, Payload: payload})
	return true
}

// SendDir emits a message one hop in direction d; it returns false when the
// hop leaves the mesh.
func (o *Outbox) SendDir(d mesh.Direction, payload any) bool {
	return o.Send(o.at.Step(d), payload)
}

// Step runs one synchronous round: every pending message becomes visible,
// every receiving node handles its inbox in deterministic order. It reports
// whether any message was processed.
func (n *Network) Step() bool {
	// Swap pending into inbox.
	n.active = n.active[:0]
	for idx := range n.pending {
		if len(n.pending[idx]) > 0 {
			n.inbox[idx], n.pending[idx] = n.pending[idx], n.inbox[idx][:0]
			n.active = append(n.active, idx)
		}
	}
	if len(n.active) == 0 {
		return false
	}
	n.rounds++
	for _, idx := range n.active {
		at := n.m.CoordOf(idx)
		if !n.participated[idx] {
			n.participated[idx] = true
			n.participants++
		}
		out := Outbox{net: n, at: at}
		for _, msg := range n.inbox[idx] {
			if msg.From != msg.To {
				n.messages++
			}
			n.handler.Deliver(n, msg, &out)
		}
		n.inbox[idx] = n.inbox[idx][:0]
	}
	return true
}

// Run steps the network until quiescence or maxRounds, returning the number
// of rounds executed and whether the network went quiet (false means the
// round budget was exhausted first — almost always a protocol livelock
// bug, which tests assert against).
func (n *Network) Run(maxRounds int) (rounds int, quiesced bool) {
	start := n.rounds
	for n.rounds-start < maxRounds {
		if !n.Step() {
			return n.rounds - start, true
		}
	}
	return n.rounds - start, false
}

// Rounds returns the total synchronous rounds executed so far.
func (n *Network) Rounds() int { return n.rounds }

// Messages returns the total link crossings so far (Post injections are
// not counted, matching how the paper counts propagation cost).
func (n *Network) Messages() int64 { return n.messages }

// Participants returns how many distinct nodes have processed at least one
// message — the "number of nodes involved in the information propagation"
// of Figure 5(c).
func (n *Network) Participants() int { return n.participants }
