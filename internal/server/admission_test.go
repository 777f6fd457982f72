package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	meshroute "repro"
	"repro/internal/admission"
	"repro/internal/errfs"
	"repro/internal/journal"
)

// doAs is do with a tenant identity.
func doAs(t *testing.T, s *Server, tenant, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

const routeBody = `{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`

// TestAdmissionRateLimit429 locks the overload surface: a tenant past
// its budget gets 429 RESOURCE_EXHAUSTED with both Retry-After forms, and
// other tenants are unaffected. TestMetricsGolden pins the per-tenant
// ledger and the mesh's RESOURCE_EXHAUSTED tally for the same traffic.
func TestAdmissionRateLimit429(t *testing.T) {
	s := New(Config{Admission: admission.Config{TenantRate: 0.001, TenantBurst: 2}})
	mustCreate(t, s, "m", 6, 6)

	for i := 0; i < 2; i++ {
		if rec := doAs(t, s, "alice", "POST", "/v1/meshes/m/route", routeBody); rec.Code != http.StatusOK {
			t.Fatalf("burst route %d: HTTP %d: %s", i+1, rec.Code, rec.Body)
		}
	}
	rec := doAs(t, s, "alice", "POST", "/v1/meshes/m/route", routeBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget route: HTTP %d: %s", rec.Code, rec.Body)
	}
	var eb errorBody
	decode(t, rec, &eb)
	if eb.Error.Code != meshroute.CodeResourceExhausted {
		t.Fatalf("code = %q, want RESOURCE_EXHAUSTED", eb.Error.Code)
	}
	if eb.Error.RetryAfterSeconds <= 0 {
		t.Fatalf("retry_after_seconds = %v, want > 0", eb.Error.RetryAfterSeconds)
	}
	// The header is whole seconds, rounded up, never 0.
	if h := rec.Header().Get("Retry-After"); h == "" || h == "0" {
		t.Fatalf("Retry-After header = %q", h)
	}

	// Tenant isolation: bob still has his own burst.
	if rec := doAs(t, s, "bob", "POST", "/v1/meshes/m/route", routeBody); rec.Code != http.StatusOK {
		t.Fatalf("bob rate-limited by alice: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestAdmissionQueueFullGolden pins the exact wire body of a capacity
// rejection (the queue-full path is deterministic: RetryAfter is the
// configured MaxWait, not a clock-dependent refill estimate).
func TestAdmissionQueueFullGolden(t *testing.T) {
	s := New(Config{Admission: admission.Config{MaxInflight: 1, MaxWait: 250 * time.Millisecond}})
	mustCreate(t, s, "m", 6, 6)

	// Occupy the only inflight slot directly.
	release, err := s.admission.Admit(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := do(t, s, "POST", "/v1/meshes/m/route", routeBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated route: HTTP %d: %s", rec.Code, rec.Body)
	}
	golden := `{"error":{"code":"RESOURCE_EXHAUSTED","message":"admission: tenant \"default\": wait queue full (retry after 250ms): resource exhausted","retry_after_seconds":0.25}}`
	if got := strings.TrimSpace(rec.Body.String()); got != golden {
		t.Errorf("body\n got %s\nwant %s", got, golden)
	}
	if h := rec.Header().Get("Retry-After"); h != "1" {
		t.Errorf("Retry-After = %q, want %q (sub-second hints round up to 1)", h, "1")
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: a request arriving at a briefly
// saturated server waits in the queue and serves normally once the slot
// frees — the queue absorbs bursts instead of bouncing them.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	s := New(Config{Admission: admission.Config{MaxInflight: 1, MaxQueue: 4, MaxWait: 5 * time.Second}})
	mustCreate(t, s, "m", 6, 6)

	release, err := s.admission.Admit(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do(t, s, "POST", "/v1/meshes/m/route", routeBody) }()

	deadline := time.Now().Add(5 * time.Second)
	for s.admission.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("queued request: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestSickJournalDegradesToReadOnly drives the full degradation ladder
// over HTTP: an injected fsync failure mid-churn latches the journal,
// after which routes keep serving, commits refuse with STORAGE, /healthz
// reports degraded (503 only under ?strict=1) — and a restart on the
// same data dir recovers the exact durable fault state and serves
// commits again.
func TestSickJournalDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	inj := errfs.New(nil)
	// The 3rd WAL fsync is the 3rd committed transaction.
	inj.Arm(errfs.Fault{Op: errfs.OpSync, Path: "wal.log", Nth: 3})
	s := New(Config{DataDir: dir, Journal: journal.Options{FS: inj}})
	mustCreate(t, s, "m", 6, 6)

	coords := []string{`{"x":1,"y":1}`, `{"x":2,"y":2}`, `{"x":2,"y":4}`}
	var failed *httptest.ResponseRecorder
	for _, at := range coords {
		rec := do(t, s, "POST", "/v1/meshes/m/faults", `{"ops":[{"op":"add","at":`+at+`}]}`)
		if rec.Code != http.StatusOK {
			failed = rec
			break
		}
	}
	if failed == nil {
		t.Fatal("injected fsync failure never surfaced")
	}
	var eb errorBody
	decode(t, failed, &eb)
	if eb.Error.Code != CodeStorage {
		t.Fatalf("failed commit code = %q, want STORAGE: %s", eb.Error.Code, failed.Body)
	}

	// Read-only degradation: routes and listings still serve...
	if rec := do(t, s, "POST", "/v1/meshes/m/route", routeBody); rec.Code != http.StatusOK {
		t.Fatalf("route on degraded mesh: HTTP %d: %s", rec.Code, rec.Body)
	}
	preRestart := do(t, s, "GET", "/v1/meshes/m/faults", "")
	if preRestart.Code != http.StatusOK {
		t.Fatalf("fault listing on degraded mesh: HTTP %d", preRestart.Code)
	}
	// ...but further commits are refused before touching the engine.
	rec := do(t, s, "POST", "/v1/meshes/m/faults", `{"ops":[{"op":"add","at":{"x":4,"y":4}}]}`)
	decode(t, rec, &eb)
	if eb.Error.Code != CodeStorage {
		t.Fatalf("commit on sick journal = %q, want STORAGE", eb.Error.Code)
	}
	if !strings.Contains(eb.Error.Message, "unavailable") {
		t.Fatalf("sick-journal refusal should be the pre-check, got: %s", eb.Error.Message)
	}

	// Health: degraded is visible, 200 by default, 503 under strict.
	hrec := do(t, s, "GET", "/healthz", "")
	var h Health
	decode(t, hrec, &h)
	if hrec.Code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("healthz = HTTP %d %+v, want 200 degraded", hrec.Code, h)
	}
	if m := h.Meshes["m"]; m.Status != "degraded" || m.JournalError == "" {
		t.Fatalf("mesh health = %+v, want degraded with its journal error", m)
	}
	if rec := do(t, s, "GET", "/healthz?strict=1", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("strict healthz on degraded server: HTTP %d, want 503", rec.Code)
	}

	// "Restart": a fresh server over the same data dir, disk healthy
	// again. The fsync-failed record's bytes reached the WAL, so recovery
	// includes it — the fault listing matches the pre-restart state
	// byte for byte.
	s2 := New(Config{DataDir: dir})
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	postRestart := do(t, s2, "GET", "/v1/meshes/m/faults", "")
	if postRestart.Code != http.StatusOK {
		t.Fatalf("fault listing after restart: HTTP %d", postRestart.Code)
	}
	if postRestart.Body.String() != preRestart.Body.String() {
		t.Fatalf("recovery not byte-identical:\n pre %s\npost %s", preRestart.Body, postRestart.Body)
	}
	hrec = do(t, s2, "GET", "/healthz?strict=1", "")
	decode(t, hrec, &h)
	if hrec.Code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after recovery = HTTP %d %+v, want 200 ok", hrec.Code, h)
	}
	if rec := do(t, s2, "POST", "/v1/meshes/m/faults", `{"ops":[{"op":"add","at":{"x":5,"y":5}}]}`); rec.Code != http.StatusOK {
		t.Fatalf("commit after recovery: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestHealthzPlainServer: without a data dir there is nothing durable to
// degrade — healthz stays a plain ok with no mesh blocks.
func TestHealthzPlainServer(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 4, 4)
	rec := do(t, s, "GET", "/healthz?strict=1", "")
	var h Health
	decode(t, rec, &h)
	if rec.Code != http.StatusOK || h.Status != "ok" || len(h.Meshes) != 0 {
		t.Fatalf("healthz = HTTP %d %+v", rec.Code, h)
	}
}
