package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	meshroute "repro"
	"repro/internal/cluster"
)

// newFollower builds a read-only replica server with a mesh installed
// through the replica path, the way internal/cluster feeds it.
func newFollower(t *testing.T, leader string) *Server {
	t.Helper()
	s := New(Config{FollowerOf: leader})
	faults := []meshroute.Coord{meshroute.C(4, 6), meshroute.C(5, 5), meshroute.C(6, 4)}
	if err := s.UpsertMesh("m", 12, 12, faults, 5); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	return s
}

// TestNotLeaderGolden pins the NOT_LEADER wire surface: status 421,
// stable code, and the leader hint on every mutation endpoint — while
// the read paths keep serving the replicated snapshot.
func TestNotLeaderGolden(t *testing.T) {
	s := newFollower(t, "http://leader.example:8080")

	const golden = `{"error":{"code":"NOT_LEADER","message":"read-only follower: send mutations to the leader","leader":"http://leader.example:8080"}}`
	mutations := []struct {
		name, method, path, body string
	}{
		{"create", "POST", "/v1/meshes", `{"name":"x","width":4,"height":4}`},
		{"delete", "DELETE", "/v1/meshes/m", ""},
		{"faults", "POST", "/v1/meshes/m/faults", `{"ops":[{"op":"add","at":{"x":1,"y":1}}]}`},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, tc.method, tc.path, tc.body)
			if rec.Code != http.StatusMisdirectedRequest {
				t.Fatalf("status = %d, want 421: %s", rec.Code, rec.Body)
			}
			if got := strings.TrimSpace(rec.Body.String()); got != golden {
				t.Fatalf("body\n got %s\nwant %s", got, golden)
			}
		})
	}

	// Reads serve the replicated state at the leader's exact version.
	rec := do(t, s, "GET", "/v1/meshes/m", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get mesh: HTTP %d: %s", rec.Code, rec.Body)
	}
	var info MeshInfo
	decode(t, rec, &info)
	if info.SnapshotVersion != 5 || info.Faults != 3 {
		t.Fatalf("replicated info = %+v, want v5 with 3 faults", info)
	}
	rec = do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":5,"y":2},"dst":{"x":5,"y":9}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("route on follower: HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp RouteWireResponse
	decode(t, rec, &resp)
	if resp.SnapshotVersion != 5 {
		t.Fatalf("route snapshot_version = %d, want 5", resp.SnapshotVersion)
	}
}

// TestReplicaApplyDelta exercises the replica installation contract:
// exact +1 versions apply, duplicates are ignored, version jumps fail
// with ErrOutOfSync, and an empty delta still advances the version (a
// leader commit that changed nothing must keep versions in lockstep).
func TestReplicaApplyDelta(t *testing.T) {
	s := newFollower(t, "http://leader.example:8080")

	if err := s.ApplyDelta("m", 6, []meshroute.Coord{meshroute.C(1, 1)}, nil); err != nil {
		t.Fatalf("apply v6: %v", err)
	}
	if v, _ := s.MeshVersion("m"); v != 6 {
		t.Fatalf("version = %d, want 6", v)
	}
	// Duplicate of replayed history: ignored, version unchanged.
	if err := s.ApplyDelta("m", 6, []meshroute.Coord{meshroute.C(9, 9)}, nil); err != nil {
		t.Fatalf("dup v6: %v", err)
	}
	if v, _ := s.MeshVersion("m"); v != 6 {
		t.Fatalf("version after dup = %d, want 6", v)
	}
	// A version the replica cannot reach by one commit is out of sync.
	if err := s.ApplyDelta("m", 9, nil, nil); !errors.Is(err, cluster.ErrOutOfSync) {
		t.Fatalf("apply v9 = %v, want ErrOutOfSync", err)
	}
	// Empty delta: the version still advances (Tx.Touch).
	if err := s.ApplyDelta("m", 7, nil, nil); err != nil {
		t.Fatalf("apply empty v7: %v", err)
	}
	if v, _ := s.MeshVersion("m"); v != 7 {
		t.Fatalf("version after empty delta = %d, want 7", v)
	}
	// Repairs fold in like the leader's: v8 removes the v6 add.
	if err := s.ApplyDelta("m", 8, nil, []meshroute.Coord{meshroute.C(1, 1)}); err != nil {
		t.Fatalf("apply v8: %v", err)
	}
	e, _ := s.reg.lookup("m")
	if e.net.Faulty(meshroute.C(1, 1)) {
		t.Fatalf("(1,1) still faulty after replicated repair")
	}
	if n := e.net.FaultCount(); n != 3 {
		t.Fatalf("fault count = %d, want the 3 upserted", n)
	}

	// Unknown meshes are out of sync (the tail must refetch), and
	// DropMesh unregisters.
	if err := s.ApplyDelta("ghost", 2, nil, nil); !errors.Is(err, cluster.ErrOutOfSync) {
		t.Fatalf("apply on ghost = %v, want ErrOutOfSync", err)
	}
	s.DropMesh("m")
	if _, ok := s.MeshVersion("m"); ok {
		t.Fatalf("mesh still registered after DropMesh")
	}
}

// TestReplicaUpsertPreservesCounters pins the resync contract: an
// UpsertMesh over a live name replaces the Network wholesale (new fault
// set, new version) but carries the serving counters over — a heal is
// not a restart — and terminates the old entry's watch streams with
// WATCH_CLOSED so consumers re-subscribe.
func TestReplicaUpsertResync(t *testing.T) {
	s := newFollower(t, "http://leader.example:8080")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sc, stop := watchStream(t, ts, "/v1/meshes/m/watch")
	defer stop()

	before, _ := s.reg.lookup("m")
	if err := s.UpsertMesh("m", 12, 12, []meshroute.Coord{meshroute.C(2, 2)}, 9); err != nil {
		t.Fatalf("resync upsert: %v", err)
	}
	after, _ := s.reg.lookup("m")
	if after == before {
		t.Fatalf("resync did not replace the entry")
	}
	if after.metrics != before.metrics {
		t.Fatalf("resync discarded the serving counters")
	}
	if v, _ := s.MeshVersion("m"); v != 9 {
		t.Fatalf("version after resync = %d, want 9", v)
	}

	const golden = `{"stream_error":{"code":"WATCH_CLOSED","message":"mesh \"m\" resynced from the leader; re-subscribe to resume"}}`
	if got := nextLine(t, sc); got != golden {
		t.Fatalf("stream line\n got %s\nwant %s", got, golden)
	}
}

// TestFollowerVarzReplication checks the follower's replication series
// on /metrics beyond the values TestMetricsGolden pins: a tail behind
// since a known instant reports its age, and a leader exports none.
func TestFollowerVarzReplication(t *testing.T) {
	s := newFollower(t, "http://leader.example:8080")
	s.SetReplication(func() map[string]cluster.TailStats {
		return map[string]cluster.TailStats{
			"m": {AppliedVersion: 5, LeaderVersion: 7, BehindSince: time.Now().Add(-3 * time.Second)},
		}
	})
	if lag := scrape(t, s)[`meshd_replication_lag_seconds{mesh="m"}`]; lag < 2.5 || lag > 60 {
		t.Fatalf("lag seconds = %v, want ~3 (age of BehindSince)", lag)
	}

	// A leader (no SetReplication) must not export replication series.
	for series := range scrape(t, New(Config{})) {
		if strings.HasPrefix(series, "meshd_replication_") {
			t.Fatalf("leader unexpectedly exports %s", series)
		}
	}
}
