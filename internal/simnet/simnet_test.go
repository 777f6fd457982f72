package simnet

import (
	"testing"

	"repro/internal/mesh"
)

// floodPayload is a trivial flood protocol used to exercise the simulator:
// each node forwards the hop-counted token to all neighbors once.
type floodPayload struct{ hops int }

func newFloodNet(m mesh.Mesh) (*Network, []bool) {
	seen := make([]bool, m.Nodes())
	var net *Network
	net = New(m, HandlerFunc(func(_ *Network, msg Message, out *Outbox) {
		idx := m.Index(out.At())
		if seen[idx] {
			return
		}
		seen[idx] = true
		p := msg.Payload.(floodPayload)
		for _, d := range mesh.Directions {
			out.SendDir(d, floodPayload{hops: p.hops + 1})
		}
	}))
	return net, seen
}

func TestFloodReachesAllNodes(t *testing.T) {
	m := mesh.Square(9)
	net, seen := newFloodNet(m)
	net.Post(mesh.C(4, 4), floodPayload{})
	rounds, quiesced := net.Run(1000)
	if !quiesced {
		t.Fatal("flood did not quiesce")
	}
	for idx, s := range seen {
		if !s {
			t.Fatalf("node %v never received the flood", m.CoordOf(idx))
		}
	}
	// Flood from the center of a 9x9 mesh: farthest node is 8 hops away;
	// one round to deliver the seed, plus 8 relay rounds, plus a final round
	// where duplicate messages are consumed without new sends.
	if rounds < 9 || rounds > 11 {
		t.Errorf("flood rounds = %d, want ~9-11", rounds)
	}
	if net.Participants() != m.Nodes() {
		t.Errorf("participants = %d, want %d", net.Participants(), m.Nodes())
	}
}

func TestSynchronousDelivery(t *testing.T) {
	// A token relayed along a line must advance exactly one hop per round.
	m := mesh.New(10, 1)
	arrival := make(map[mesh.Coord]int)
	var net *Network
	net = New(m, HandlerFunc(func(_ *Network, msg Message, out *Outbox) {
		if _, dup := arrival[out.At()]; !dup {
			arrival[out.At()] = net.Rounds()
		}
		out.SendDir(mesh.PlusX, msg.Payload)
	}))
	net.Post(mesh.C(0, 0), "token")
	if _, q := net.Run(100); !q {
		t.Fatal("line relay did not quiesce")
	}
	for x := 0; x < 10; x++ {
		want := x + 1 // seed delivered in round 1
		if got := arrival[mesh.C(x, 0)]; got != want {
			t.Errorf("node (%d,0) received in round %d, want %d", x, got, want)
		}
	}
	if net.Messages() != 9 {
		t.Errorf("link messages = %d, want 9", net.Messages())
	}
}

func TestNonNeighborSendPanics(t *testing.T) {
	m := mesh.Square(5)
	net := New(m, HandlerFunc(func(_ *Network, _ Message, out *Outbox) {
		out.Send(mesh.C(4, 4), "bad") // not adjacent to (0,0)
	}))
	net.Post(mesh.C(0, 0), "seed")
	defer func() {
		if recover() == nil {
			t.Error("non-neighbor send did not panic")
		}
	}()
	net.Step()
}

func TestBorderSendDropped(t *testing.T) {
	m := mesh.Square(3)
	drops := 0
	net := New(m, HandlerFunc(func(_ *Network, _ Message, out *Outbox) {
		if !out.SendDir(mesh.MinusX, "off") {
			drops++
		}
	}))
	net.Post(mesh.C(0, 1), "seed")
	net.Step()
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
	if net.Messages() != 0 {
		t.Error("dropped send must not count as a link message")
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// Two nodes ping-pong forever.
	m := mesh.New(2, 1)
	net := New(m, HandlerFunc(func(_ *Network, msg Message, out *Outbox) {
		if msg.From == msg.To { // seed
			out.SendDir(mesh.PlusX, "ping")
			return
		}
		out.Send(msg.From, "pong")
	}))
	net.Post(mesh.C(0, 0), "seed")
	rounds, quiesced := net.Run(50)
	if quiesced {
		t.Fatal("ping-pong must not quiesce")
	}
	if rounds != 50 {
		t.Errorf("rounds = %d, want 50", rounds)
	}
}

func TestParticipants(t *testing.T) {
	m := mesh.Square(4)
	net, _ := newFloodNet(m)
	net.Post(mesh.C(0, 0), floodPayload{})
	net.Run(100)
	if net.Participants() != m.Nodes() {
		t.Fatalf("participants = %d, want all %d", net.Participants(), m.Nodes())
	}
}

func TestDeterminism(t *testing.T) {
	// Same protocol, same seeds: identical metric trajectory.
	run := func() (int64, int, int) {
		m := mesh.Square(8)
		net, _ := newFloodNet(m)
		net.Post(mesh.C(1, 6), floodPayload{})
		net.Post(mesh.C(6, 1), floodPayload{})
		net.Run(100)
		return net.Messages(), net.Rounds(), net.Participants()
	}
	m1, r1, p1 := run()
	m2, r2, p2 := run()
	if m1 != m2 || r1 != r2 || p1 != p2 {
		t.Errorf("nondeterministic run: (%d,%d,%d) vs (%d,%d,%d)", m1, r1, p1, m2, r2, p2)
	}
}

func TestPostPanicsOutsideMesh(t *testing.T) {
	net := New(mesh.Square(3), HandlerFunc(func(_ *Network, _ Message, _ *Outbox) {}))
	defer func() {
		if recover() == nil {
			t.Error("Post outside mesh did not panic")
		}
	}()
	net.Post(mesh.C(9, 9), "x")
}
