package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// logLines decodes the buffered slog JSON output into one map per record.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestAccessLogLine locks the shape of the structured access record: one
// JSON line per request carrying the request ID, method, path, mesh,
// tenant, status, duration, and the span breakdown of what the handler
// actually did (a route request reports walk and oracle time).
func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	mustCreate(t, s, "m", 6, 6)
	buf.Reset()

	rec := doAs(t, s, "alice", "POST", "/v1/meshes/m/route", routeBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("route: HTTP %d: %s", rec.Code, rec.Body)
	}
	echoed := rec.Header().Get("X-Request-Id")
	if !telemetry.ValidRequestID(echoed) {
		t.Fatalf("response X-Request-Id = %q, want a generated ID", echoed)
	}

	lines := logLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %v", len(lines), lines)
	}
	l := lines[0]
	want := map[string]any{
		"msg": "request", "level": "INFO", "id": echoed,
		"method": "POST", "path": "/v1/meshes/m/route",
		"mesh": "m", "tenant": "alice", "status": float64(200),
	}
	for k, v := range want {
		if l[k] != v {
			t.Errorf("log[%q] = %v, want %v", k, l[k], v)
		}
	}
	if _, ok := l["dur_ms"].(float64); !ok {
		t.Errorf("log line has no dur_ms: %v", l)
	}
	// The route handler attributes walk and oracle time; decode and
	// encode spans come from the shared body helpers.
	for _, span := range []string{"walk_ms", "oracle_ms", "decode_ms", "encode_ms"} {
		if _, ok := l[span].(float64); !ok {
			t.Errorf("log line missing span %s: %v", span, l)
		}
	}
	if _, ok := l["code"]; ok {
		t.Errorf("successful request logged a wire code: %v", l)
	}
}

// doWithID fires one route request carrying a client-supplied
// X-Request-Id.
func doWithID(t *testing.T, s *Server, id string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/meshes/m/route", strings.NewReader(routeBody))
	req.Header.Set("X-Request-Id", id)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestAccessLogRequestIDPropagation: a well-formed client ID is adopted
// verbatim (the cross-hop correlation contract); a malformed one is
// replaced with a server-generated ID.
func TestAccessLogRequestIDPropagation(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	mustCreate(t, s, "m", 6, 6)
	buf.Reset()

	rec := doWithID(t, s, "load-42.hop:1")
	if got := rec.Header().Get("X-Request-Id"); got != "load-42.hop:1" {
		t.Fatalf("valid client ID not adopted: echoed %q", got)
	}
	if l := logLines(t, &buf); len(l) != 1 || l[0]["id"] != "load-42.hop:1" {
		t.Fatalf("access log did not carry the client ID: %v", l)
	}

	buf.Reset()
	rec = doWithID(t, s, "bad id\twith control")
	got := rec.Header().Get("X-Request-Id")
	if got == "bad id\twith control" || !telemetry.ValidRequestID(got) {
		t.Fatalf("malformed client ID not replaced: echoed %q", got)
	}
}

// TestAccessLogErrorCode: a refused request logs its wire code alongside
// the status, so error taxonomies are greppable in the logs too.
func TestAccessLogErrorCode(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	mustCreate(t, s, "m", 6, 6)
	buf.Reset()

	rec := do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":0,"y":0},"dst":{"x":9,"y":9}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("outside route: HTTP %d", rec.Code)
	}
	l := logLines(t, &buf)
	if len(l) != 1 || l[0]["code"] != "OUTSIDE_MESH" || l[0]["status"] != float64(400) {
		t.Fatalf("error access record = %v, want code OUTSIDE_MESH status 400", l)
	}
}

// TestSlowRequestRecord: past the threshold the request logs twice — the
// INFO access line plus a WARN slow-request record carrying the
// threshold, so slow-path alerting can key on one message.
func TestSlowRequestRecord(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{
		Logger:        slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowThreshold: time.Nanosecond, // everything is slow
	})
	mustCreate(t, s, "m", 6, 6)
	buf.Reset()

	if rec := do(t, s, "POST", "/v1/meshes/m/route", routeBody); rec.Code != http.StatusOK {
		t.Fatalf("route: HTTP %d", rec.Code)
	}
	lines := logLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want access + slow: %v", len(lines), lines)
	}
	slow := lines[1]
	if slow["msg"] != "slow request" || slow["level"] != "WARN" {
		t.Fatalf("second record = %v, want WARN slow request", slow)
	}
	if _, ok := slow["slow_threshold_ms"].(float64); !ok {
		t.Fatalf("slow record has no slow_threshold_ms: %v", slow)
	}
	if slow["id"] != lines[0]["id"] {
		t.Fatalf("slow record id %v != access record id %v", slow["id"], lines[0]["id"])
	}
}

// TestAccessLogJournalSpans: with a journal, a committed fault
// transaction attributes its disk time — the journal_append span comes
// from the version-keyed OnAppend ring, and apply time excludes it —
// whether the mesh was created on this boot or recovered from disk.
func TestAccessLogJournalSpans(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recover bool
	}{{"created", false}, {"recovered", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{DataDir: t.TempDir(), Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
			s := New(cfg)
			mustCreate(t, s, "m", 6, 6)
			if tc.recover {
				s = New(cfg)
				if n, err := s.Recover(); err != nil || n != 1 {
					t.Fatalf("Recover = (%d, %v), want (1, nil)", n, err)
				}
			}
			buf.Reset()

			rec := do(t, s, "POST", "/v1/meshes/m/faults", `{"ops":[{"op":"add","at":{"x":1,"y":1}}]}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("faults: HTTP %d: %s", rec.Code, rec.Body)
			}
			l := logLines(t, &buf)
			if len(l) != 1 {
				t.Fatalf("got %d log lines, want 1", len(l))
			}
			for _, span := range []string{"apply_ms", "journal_append_ms"} {
				if _, ok := l[0][span].(float64); !ok {
					t.Errorf("fault commit log missing span %s: %v", span, l[0])
				}
			}
		})
	}
}

// TestMeshFromPath pins the middleware's path parsing (it runs before
// the mux populates path values).
func TestMeshFromPath(t *testing.T) {
	cases := map[string]string{
		"/v1/meshes/m/route":  "m",
		"/v1/meshes/big-1":    "big-1",
		"/v1/meshes/a/faults": "a",
		"/v1/meshes":          "",
		"/v1/meshes/":         "",
		"/healthz":            "",
		"/metrics":            "",
	}
	for path, want := range cases {
		if got := meshFromPath(path); got != want {
			t.Errorf("meshFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}
