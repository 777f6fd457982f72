package meshroute

import (
	"context"
	"testing"

	"repro/internal/info"
	"repro/internal/mesh"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	net := NewSquare(20)
	if err := net.InjectRandom(40, 42); err != nil {
		t.Fatal(err)
	}
	if net.FaultCount() != 40 {
		t.Fatalf("FaultCount = %d", net.FaultCount())
	}
	if !net.Connected() {
		t.Skip("seed produced a disconnected mesh")
	}
	routed := 0
	req := RouteRequest{Src: C(1, 1), Dst: C(18, 17)}
	for _, algo := range []Algorithm{Ecube, RB1, RB2, RB3} {
		resp, err := net.Route(ctx, req, WithAlgorithm(algo))
		if err != nil {
			continue // endpoints may be faulty/unsafe for this seed
		}
		routed++
		if resp.Oracle == nil {
			t.Fatalf("%v: oracle report missing without WithoutOracle", algo)
		}
		if resp.Hops < resp.Oracle.Optimal {
			t.Fatalf("%v beat the oracle", algo)
		}
		if algo == RB2 && !resp.Oracle.Shortest {
			t.Errorf("RB2 not shortest: %d vs %d", resp.Hops, resp.Oracle.Optimal)
		}
	}
	if routed == 0 {
		t.Skip("endpoints unusable for this seed")
	}
}

func TestFacadeFaultManagement(t *testing.T) {
	net := New(10, 8)
	if net.Width() != 10 || net.Height() != 8 {
		t.Fatal("dimensions")
	}
	if err := net.AddFault(C(3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLinkFault(C(5, 5), C(5, 6)); err != nil {
		t.Fatal(err)
	}
	if net.FaultCount() != 3 || !net.Faulty(C(5, 6)) {
		t.Error("link fault not applied")
	}
	if err := net.AddFault(C(99, 0)); err == nil {
		t.Error("out-of-mesh fault accepted")
	}
	if err := net.AddLinkFault(C(0, 0), C(2, 0)); err == nil {
		t.Error("non-adjacent link accepted")
	}
	if err := net.RepairFault(C(3, 3)); err != nil || net.Faulty(C(3, 3)) {
		t.Error("repair failed")
	}
	if err := net.RepairFault(C(-1, 0)); err == nil {
		t.Error("out-of-mesh repair accepted")
	}
}

// TestFacadeWithoutOracle pins the hot-path contract: no oracle report,
// and the walk result is otherwise identical.
func TestFacadeWithoutOracle(t *testing.T) {
	ctx := context.Background()
	net := NewSquare(12)
	if err := net.AddFault(C(5, 5)); err != nil {
		t.Fatal(err)
	}
	req := RouteRequest{Src: C(1, 1), Dst: C(10, 10)}
	fast, err := net.Route(ctx, req, WithoutOracle())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Oracle != nil {
		t.Error("WithoutOracle still produced an oracle report")
	}
	full, err := net.Route(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Oracle == nil || full.Hops != fast.Hops {
		t.Errorf("oracle run diverged: %+v vs %+v", full, fast)
	}
}

func TestFacadeAnalysisViews(t *testing.T) {
	net := NewSquare(12)
	// Anti-diagonal: merges into one 3x3 MCC, applied as one transaction.
	err := net.Apply(func(tx *Tx) error {
		for _, c := range []Coord{C(4, 6), C(5, 5), C(6, 4)} {
			if err := tx.AddFault(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.MCCs()); got != 1 {
		t.Fatalf("MCCs = %d, want 1", got)
	}
	if !net.Analysis().Grid(mesh.NE).Unsafe(C(4, 4)) {
		t.Error("useless node not reported unsafe")
	}
	safe, faulty, useless, cantReach := net.LabelCounts()
	if faulty != 3 || useless != 3 || cantReach != 3 || safe != 144-9 {
		t.Errorf("census = %d/%d/%d/%d", safe, faulty, useless, cantReach)
	}
	st := net.InfoStore(info.B3)
	if st.Participants() == 0 {
		t.Error("B3 store has no participants")
	}
	// Routing across the region: RB2 optimal.
	resp, err := net.Route(context.Background(), RouteRequest{Src: C(5, 2), Dst: C(5, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Oracle.Shortest || resp.Oracle.ManhattanFeasible {
		t.Errorf("blocked case: shortest=%v manhattan=%v",
			resp.Oracle.Shortest, resp.Oracle.ManhattanFeasible)
	}
}

// TestFacadeStatsGauges covers the published/pending split of the Stats
// API: pending edits are visible mid-transaction, the published count
// moves only after commit, and the snapshot version advances by exactly
// one per committed transaction.
func TestFacadeStatsGauges(t *testing.T) {
	net := NewSquare(8)
	base := net.Stats()
	if base.PublishedFaults != 0 || base.PendingEdits != 0 {
		t.Fatalf("fresh network stats = %+v", base)
	}
	err := net.Apply(func(tx *Tx) error {
		if err := tx.AddFault(C(1, 1)); err != nil {
			return err
		}
		if err := tx.AddFault(C(2, 2)); err != nil {
			return err
		}
		mid := net.Stats()
		if mid.PublishedFaults != 0 {
			t.Errorf("staged edits leaked into published count: %+v", mid)
		}
		if mid.PendingEdits != 2 {
			t.Errorf("PendingEdits = %d, want 2", mid.PendingEdits)
		}
		if tx.FaultCount() != 2 || !tx.Faulty(C(1, 1)) {
			t.Errorf("tx view wrong: count=%d", tx.FaultCount())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := net.Stats()
	if after.PublishedFaults != 2 || after.PendingEdits != 0 {
		t.Errorf("post-commit stats = %+v", after)
	}
	if after.SnapshotVersion != base.SnapshotVersion+1 {
		t.Errorf("version advanced %d -> %d, want exactly one publication",
			base.SnapshotVersion, after.SnapshotVersion)
	}
}

// TestFacadeApplyRollback locks the transaction guarantee: a failing
// callback publishes nothing, leaves no pending edits behind, and the
// version does not advance.
func TestFacadeApplyRollback(t *testing.T) {
	net := NewSquare(8)
	if err := net.AddFault(C(0, 0)); err != nil {
		t.Fatal(err)
	}
	before := net.Stats()
	err := net.Apply(func(tx *Tx) error {
		if err := tx.AddFault(C(3, 3)); err != nil {
			return err
		}
		return tx.AddFault(C(99, 99)) // outside: fails the transaction
	})
	if err == nil {
		t.Fatal("bad transaction committed")
	}
	after := net.Stats()
	if after != before {
		t.Errorf("rollback changed stats: %+v -> %+v", before, after)
	}
	if net.Faulty(C(3, 3)) {
		t.Error("rolled-back edit is visible")
	}
}

// TestFacadeInjectRandomValidation covers the satellite input checks:
// negative counts and whole-mesh counts fail typed, valid counts work,
// and a failed InjectRandom leaves the previous configuration intact.
func TestFacadeInjectRandomValidation(t *testing.T) {
	net := New(6, 5)
	if err := net.InjectRandom(4, 9); err != nil {
		t.Fatal(err)
	}
	if net.FaultCount() != 4 {
		t.Fatalf("FaultCount = %d", net.FaultCount())
	}
	for _, count := range []int{-1, 30, 31} { // 6*5 = 30 nodes
		if err := net.InjectRandom(count, 9); err == nil {
			t.Errorf("count %d accepted", count)
		}
	}
	if net.FaultCount() != 4 {
		t.Errorf("failed inject mutated the configuration: %d faults", net.FaultCount())
	}
}
