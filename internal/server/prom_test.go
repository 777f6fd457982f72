package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/routing"
)

// normalizeMetrics replaces the sample value of nondeterministic lines
// (uptime, walk-latency bucket fills and sum — wall-clock dependent)
// with "X" so the rest of the exposition can be byte-compared.
func normalizeMetrics(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		for _, prefix := range []string{
			"meshd_uptime_seconds ",
			"meshd_walk_latency_seconds_bucket{",
			"meshd_walk_latency_seconds_sum{",
		} {
			if strings.HasPrefix(line, prefix) {
				if j := strings.LastIndexByte(line, ' '); j >= 0 {
					lines[i] = line[:j] + " X"
				}
			}
		}
	}
	return strings.Join(lines, "\n")
}

// scrape parses one GET /metrics exposition into a map from series, as
// exposed (`meshd_routes_total{mesh="m"}`), to its sample value.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	rec := do(t, s, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsGolden pins the full Prometheus exposition byte for byte
// (modulo wall-clock sample values): a mesh with served routes, a wire
// error, a fault transaction, an admission 429, and a follower
// replication block all render with stable names, labels, ordering, and
// values. The golden is the /metrics contract — a diff here is a
// monitoring-breaking change and should be treated like a wire change.
func TestMetricsGolden(t *testing.T) {
	s := New(Config{Admission: admission.Config{TenantRate: 0.001, TenantBurst: 2}})
	mustCreate(t, s, "m", 6, 6)

	// alice: two delivered walks, then a 429.
	for i := 0; i < 2; i++ {
		if rec := doAs(t, s, "alice", "POST", "/v1/meshes/m/route", routeBody); rec.Code != http.StatusOK {
			t.Fatalf("route %d: HTTP %d: %s", i+1, rec.Code, rec.Body)
		}
	}
	if rec := doAs(t, s, "alice", "POST", "/v1/meshes/m/route", routeBody); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget route: HTTP %d: %s", rec.Code, rec.Body)
	}
	// default tenant: an OUTSIDE_MESH refusal lands in the wire-code tally.
	if rec := do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":0,"y":0},"dst":{"x":9,"y":9}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("outside route: HTTP %d: %s", rec.Code, rec.Body)
	}
	// bob: one committed fault transaction (snapshot v2, one delta rebuild).
	if rec := doAs(t, s, "bob", "POST", "/v1/meshes/m/faults", `{"ops":[{"op":"add","at":{"x":1,"y":1}}]}`); rec.Code != http.StatusOK {
		t.Fatalf("faults: HTTP %d: %s", rec.Code, rec.Body)
	}
	// A replication block, as a follower tail would export it.
	s.SetReplication(func() map[string]cluster.TailStats {
		return map[string]cluster.TailStats{
			"m": {AppliedVersion: 5, LeaderVersion: 7, Reconnects: 2, GapsHealed: 1},
		}
	})

	rec := do(t, s, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	got := normalizeMetrics(rec.Body.String())
	if got != metricsGolden {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, metricsGolden)
	}
}

const metricsGolden = `# HELP meshd_uptime_seconds Seconds since the server started.
# TYPE meshd_uptime_seconds gauge
meshd_uptime_seconds X
# HELP meshd_routes_total Walks served (every batch item counts).
# TYPE meshd_routes_total counter
meshd_routes_total{mesh="m"} 2
# HELP meshd_routes_delivered_total Walks that reached their destination.
# TYPE meshd_routes_delivered_total counter
meshd_routes_delivered_total{mesh="m"} 2
# HELP meshd_route_hops_total Total hops walked by delivered walks.
# TYPE meshd_route_hops_total counter
meshd_route_hops_total{mesh="m"} 12
# HELP meshd_walk_latency_seconds Wall-clock walk latency.
# TYPE meshd_walk_latency_seconds histogram
meshd_walk_latency_seconds_bucket{mesh="m",le="5e-05"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.0001"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.00025"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.0005"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.001"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.0025"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.005"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.01"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.025"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.05"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="0.1"} X
meshd_walk_latency_seconds_bucket{mesh="m",le="+Inf"} X
meshd_walk_latency_seconds_sum{mesh="m"} X
meshd_walk_latency_seconds_count{mesh="m"} 2
# HELP meshd_wire_errors_total Error outcomes by wire code (non-2xx responses plus in-stream error records).
# TYPE meshd_wire_errors_total counter
meshd_wire_errors_total{mesh="m",code="ABORTED"} 0
meshd_wire_errors_total{mesh="m",code="BAD_REQUEST"} 0
meshd_wire_errors_total{mesh="m",code="CANCELED"} 0
meshd_wire_errors_total{mesh="m",code="FAULTY_ENDPOINT"} 0
meshd_wire_errors_total{mesh="m",code="INTERNAL"} 0
meshd_wire_errors_total{mesh="m",code="INVALID_FAULT_COUNT"} 0
meshd_wire_errors_total{mesh="m",code="MESH_EXISTS"} 0
meshd_wire_errors_total{mesh="m",code="MESH_NOT_FOUND"} 0
meshd_wire_errors_total{mesh="m",code="NOT_ADJACENT"} 0
meshd_wire_errors_total{mesh="m",code="NOT_LEADER"} 0
meshd_wire_errors_total{mesh="m",code="OUTSIDE_MESH"} 1
meshd_wire_errors_total{mesh="m",code="REGISTRY_FULL"} 0
meshd_wire_errors_total{mesh="m",code="RESOURCE_EXHAUSTED"} 1
meshd_wire_errors_total{mesh="m",code="STORAGE"} 0
meshd_wire_errors_total{mesh="m",code="UNREACHABLE"} 0
meshd_wire_errors_total{mesh="m",code="WATCH_CLOSED"} 0
# HELP meshd_oracle_hits_total Distance-oracle cache hits.
# TYPE meshd_oracle_hits_total counter
meshd_oracle_hits_total{mesh="m"} 1
# HELP meshd_oracle_misses_total Distance-oracle cache misses (BFS recomputes).
# TYPE meshd_oracle_misses_total counter
meshd_oracle_misses_total{mesh="m"} 1
# HELP meshd_rebuild_delta_total Snapshot publications served by the delta-scoped rebuild path.
# TYPE meshd_rebuild_delta_total counter
meshd_rebuild_delta_total{mesh="m"} 1
# HELP meshd_rebuild_full_total Snapshot publications that fell back to a full precompute.
# TYPE meshd_rebuild_full_total counter
meshd_rebuild_full_total{mesh="m"} 0
# HELP meshd_faults Faulty nodes in the published configuration.
# TYPE meshd_faults gauge
meshd_faults{mesh="m"} 1
# HELP meshd_snapshot_version Published snapshot version.
# TYPE meshd_snapshot_version gauge
meshd_snapshot_version{mesh="m"} 2
# HELP meshd_watchers Live watch subscriptions.
# TYPE meshd_watchers gauge
meshd_watchers{mesh="m"} 0
# HELP meshd_watch_events_dropped_total Fault events dropped on slow watchers.
# TYPE meshd_watch_events_dropped_total counter
meshd_watch_events_dropped_total{mesh="m"} 0
# HELP meshd_admission_inflight Requests currently holding an admission slot.
# TYPE meshd_admission_inflight gauge
meshd_admission_inflight 0
# HELP meshd_admission_queued Requests currently queued for an admission slot.
# TYPE meshd_admission_queued gauge
meshd_admission_queued 0
# HELP meshd_admission_admitted_total Requests admitted, by tenant.
# TYPE meshd_admission_admitted_total counter
meshd_admission_admitted_total 4
meshd_admission_admitted_total{tenant="alice"} 2
meshd_admission_admitted_total{tenant="bob"} 1
meshd_admission_admitted_total{tenant="default"} 1
# HELP meshd_admission_rejected_total Requests rejected with RESOURCE_EXHAUSTED, by tenant.
# TYPE meshd_admission_rejected_total counter
meshd_admission_rejected_total 1
meshd_admission_rejected_total{tenant="alice"} 1
meshd_admission_rejected_total{tenant="bob"} 0
meshd_admission_rejected_total{tenant="default"} 0
# HELP meshd_admission_tenant_queued Requests queued, by tenant.
# TYPE meshd_admission_tenant_queued gauge
meshd_admission_tenant_queued{tenant="alice"} 0
meshd_admission_tenant_queued{tenant="bob"} 0
meshd_admission_tenant_queued{tenant="default"} 0
# HELP meshd_replication_applied_version Last leader snapshot version applied locally.
# TYPE meshd_replication_applied_version gauge
meshd_replication_applied_version{mesh="m"} 5
# HELP meshd_replication_leader_version Highest snapshot version the leader has announced.
# TYPE meshd_replication_leader_version gauge
meshd_replication_leader_version{mesh="m"} 7
# HELP meshd_replication_lag Versions behind the leader (leader - applied).
# TYPE meshd_replication_lag gauge
meshd_replication_lag{mesh="m"} 2
# HELP meshd_replication_lag_seconds Seconds this mesh has been behind the leader (age of the oldest unapplied announcement).
# TYPE meshd_replication_lag_seconds gauge
meshd_replication_lag_seconds{mesh="m"} 0
# HELP meshd_replication_reconnects_total Watch-stream reconnects.
# TYPE meshd_replication_reconnects_total counter
meshd_replication_reconnects_total{mesh="m"} 2
# HELP meshd_replication_gaps_healed_total Full snapshot refetches forced by gaps or out-of-sync deltas.
# TYPE meshd_replication_gaps_healed_total counter
meshd_replication_gaps_healed_total{mesh="m"} 1
`

// TestMetricsScrapeDuringApply races /metrics scrapes against fault
// transactions and route serving: scrape-time registry walks read every
// counter, histogram bucket, and engine stat while the writer publishes
// snapshots (meaningful under -race; the assertions here are liveness
// and well-formedness).
func TestMetricsScrapeDuringApply(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 8, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x, y := 1+i%6, 1+(i/6)%6
			op := `{"op":"add","at":{"x":` + itoa(x) + `,"y":` + itoa(y) + `}}`
			do(t, s, "POST", "/v1/meshes/m/faults", `{"ops":[`+op+`]}`)
			op = `{"op":"repair","at":{"x":` + itoa(x) + `,"y":` + itoa(y) + `}}`
			do(t, s, "POST", "/v1/meshes/m/faults", `{"ops":[`+op+`]}`)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			do(t, s, "POST", "/v1/meshes/m/route", routeBody)
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		text := s.MetricsText()
		if !strings.Contains(text, "meshd_routes_total{mesh=\"m\"}") {
			t.Errorf("scrape lost the mesh:\n%s", text)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// TestRouteServedAllocs guards the instrumentation delta on the warm
// route path: the engine's Metrics callback — the only code telemetry
// adds per walk — must allocate nothing. Together with the routing
// package's zero-alloc walk guard, this keeps the instrumented serving
// path allocation-free.
func TestRouteServedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	c := newCollector()
	if avg := testing.AllocsPerRun(200, func() {
		c.RouteServed(routing.RB2, true, 11, 137*time.Microsecond)
	}); avg != 0 {
		t.Errorf("RouteServed allocates %.1f objects/op, want 0", avg)
	}
	if c.routes.Value() == 0 || c.walk == nil {
		t.Fatalf("collector did not record")
	}
}
