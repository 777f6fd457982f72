package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// watchStream opens a /watch stream against a live test server and
// returns a line reader plus a closer.
func watchStream(t *testing.T, ts *httptest.Server, path string) (*bufio.Scanner, func()) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("watch %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch %s: HTTP %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return sc, func() { resp.Body.Close() }
}

// nextLine reads one NDJSON line or fails the test.
func nextLine(t *testing.T, sc *bufio.Scanner) string {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("watch stream ended early: %v", sc.Err())
	}
	return strings.TrimSpace(sc.Text())
}

// TestWatchStreamGolden is the wire-format test for the NDJSON watch
// stream, matching the error-body golden style: exact bytes for the
// event, replay, gap, heartbeat, and stream_error lines.
func TestWatchStreamGolden(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		// A persistent server: ?from=1 replays from the journal, so the
		// event line is deterministic regardless of commit/subscribe
		// interleaving.
		s := New(Config{DataDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		mustCreate(t, s, "w", 12, 12)
		sc, stop := watchStream(t, ts, "/v1/meshes/w/watch?from=1")
		defer stop()
		mustFaults(t, s, "w", `{"op":"add","at":{"x":1,"y":1}},{"op":"add","at":{"x":2,"y":2}}`)
		mustFaults(t, s, "w", `{"op":"repair","at":{"x":1,"y":1}}`)
		for i, golden := range []string{
			`{"event":{"version":2,"adds":[{"x":1,"y":1},{"x":2,"y":2}]}}`,
			`{"event":{"version":3,"repairs":[{"x":1,"y":1}]}}`,
		} {
			if got := nextLine(t, sc); got != golden {
				t.Fatalf("line %d\n got %s\nwant %s", i, got, golden)
			}
		}
	})

	t.Run("replay-from-journal", func(t *testing.T) {
		s := New(Config{DataDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		mustCreate(t, s, "w", 12, 12)
		// Commit BEFORE anyone watches; the journal tail serves the resume.
		mustFaults(t, s, "w", `{"op":"add","at":{"x":3,"y":4}}`)
		mustFaults(t, s, "w", `{"op":"add","at":{"x":5,"y":6}}`)
		sc, stop := watchStream(t, ts, "/v1/meshes/w/watch?from=1")
		defer stop()
		for i, golden := range []string{
			`{"event":{"version":2,"adds":[{"x":3,"y":4}]}}`,
			`{"event":{"version":3,"adds":[{"x":5,"y":6}]}}`,
		} {
			if got := nextLine(t, sc); got != golden {
				t.Fatalf("line %d\n got %s\nwant %s", i, got, golden)
			}
		}
	})

	t.Run("gap-without-journal", func(t *testing.T) {
		// No data dir: a resume point behind the current version cannot
		// be replayed — the stream says so explicitly, then goes live.
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		mustCreate(t, s, "w", 12, 12)
		mustFaults(t, s, "w", `{"op":"add","at":{"x":1,"y":1}}`)
		mustFaults(t, s, "w", `{"op":"add","at":{"x":2,"y":2}}`)
		sc, stop := watchStream(t, ts, "/v1/meshes/w/watch?from=1")
		defer stop()
		if got, golden := nextLine(t, sc), `{"gap":{"from":2,"to":3}}`; got != golden {
			t.Fatalf("gap line\n got %s\nwant %s", got, golden)
		}
		mustFaults(t, s, "w", `{"op":"repair","at":{"x":2,"y":2}}`)
		if got, golden := nextLine(t, sc), `{"event":{"version":4,"repairs":[{"x":2,"y":2}]}}`; got != golden {
			t.Fatalf("live line after gap\n got %s\nwant %s", got, golden)
		}
	})

	t.Run("heartbeat", func(t *testing.T) {
		s := New(Config{WatchHeartbeat: 20 * time.Millisecond})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		mustCreate(t, s, "w", 12, 12)
		sc, stop := watchStream(t, ts, "/v1/meshes/w/watch")
		defer stop()
		if got, golden := nextLine(t, sc), `{"heartbeat":{"version":1}}`; got != golden {
			t.Fatalf("heartbeat line\n got %s\nwant %s", got, golden)
		}
	})

	t.Run("stream-error-on-delete", func(t *testing.T) {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		mustCreate(t, s, "w", 12, 12)
		sc, stop := watchStream(t, ts, "/v1/meshes/w/watch")
		defer stop()
		if rec := do(t, s, "DELETE", "/v1/meshes/w", ""); rec.Code != http.StatusNoContent {
			t.Fatalf("delete: HTTP %d", rec.Code)
		}
		golden := `{"stream_error":{"code":"MESH_NOT_FOUND","message":"mesh \"w\" deleted"}}`
		if got := nextLine(t, sc); got != golden {
			t.Fatalf("delete stream_error line\n got %s\nwant %s", got, golden)
		}
		if sc.Scan() {
			t.Fatalf("stream continued after delete: %q", sc.Text())
		}
	})

	t.Run("stream-error-on-drain", func(t *testing.T) {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		mustCreate(t, s, "w", 12, 12)
		sc, stop := watchStream(t, ts, "/v1/meshes/w/watch")
		defer stop()
		s.Drain(errors.New("maintenance"))
		golden := `{"stream_error":{"code":"CANCELED","message":"watch: request canceled: maintenance"}}`
		if got := nextLine(t, sc); got != golden {
			t.Fatalf("stream_error line\n got %s\nwant %s", got, golden)
		}
		if sc.Scan() {
			t.Fatalf("stream continued after stream_error: %q", sc.Text())
		}
	})
}

// TestWatchDeliversEveryCommitUnderLoad is the wire-level half of the
// ordering acceptance criterion: with concurrent fault transactions
// hammering the mesh, the watch stream delivers every commit exactly
// once, in version order, with no gap lines (run under -race in the
// race suite).
func TestWatchDeliversEveryCommitUnderLoad(t *testing.T) {
	s := New(Config{WatchBuffer: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustCreate(t, s, "w", 16, 16)
	sc, stop := watchStream(t, ts, "/v1/meshes/w/watch?from=1")
	defer stop()

	const writers, txPer = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txPer; i++ {
				ops := fmt.Sprintf(`{"op":"add","at":{"x":%d,"y":%d}}`, g, i)
				if i%2 == 1 {
					ops = fmt.Sprintf(`{"op":"repair","at":{"x":%d,"y":%d}}`, g, i-1)
				}
				rec := do(t, s, "POST", "/v1/meshes/w/faults", `{"ops":[`+ops+`]}`)
				if rec.Code != http.StatusOK {
					t.Errorf("txn: HTTP %d: %s", rec.Code, rec.Body)
				}
			}
		}(g)
	}
	wg.Wait()

	last := uint64(1)
	for n := 0; n < writers*txPer; n++ {
		var item WatchWireItem
		if err := json.Unmarshal([]byte(nextLine(t, sc)), &item); err != nil {
			t.Fatalf("bad line: %v", err)
		}
		if item.Gap != nil {
			t.Fatalf("gap %+v with an ample buffer", item.Gap)
		}
		if item.Event == nil {
			t.Fatalf("non-event line %+v", item)
		}
		if item.Event.Version != last+1 {
			t.Fatalf("event %d version = %d, want %d (in order, no dups)", n, item.Event.Version, last+1)
		}
		last = item.Event.Version
	}
}

// TestRecoverRoundTrip is the in-process kill/restart test: a second
// server over the same data dir must rebuild every mesh to the identical
// fault set and snapshot version, keep extending the same version
// sequence, and deletes must not resurrect on the next boot.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}

	s1 := New(cfg)
	if n, err := s1.Recover(); err != nil || n != 0 {
		t.Fatalf("fresh recover = (%d, %v), want (0, nil)", n, err)
	}
	mustCreate(t, s1, "alpha", 16, 16)
	mustCreate(t, s1, "beta", 8, 24)
	mustFaults(t, s1, "alpha", `{"op":"inject_random","count":30,"seed":7}`)
	mustFaults(t, s1, "alpha", `{"op":"add","at":{"x":0,"y":0}},{"op":"repair","at":{"x":0,"y":0}}`)
	mustFaults(t, s1, "beta", `{"op":"add","at":{"x":7,"y":23}}`)

	meshBody := func(s *Server, name string) (string, string) {
		rec := do(t, s, "GET", "/v1/meshes/"+name, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("get %s: HTTP %d", name, rec.Code)
		}
		faults := do(t, s, "GET", "/v1/meshes/"+name+"/faults", "")
		if faults.Code != http.StatusOK {
			t.Fatalf("faults %s: HTTP %d", name, faults.Code)
		}
		return strings.TrimSpace(rec.Body.String()), strings.TrimSpace(faults.Body.String())
	}
	wantAlpha, wantAlphaFaults := meshBody(s1, "alpha")
	wantBeta, wantBetaFaults := meshBody(s1, "beta")
	// Kill: s1 is simply abandoned (FsyncAlways means everything
	// acknowledged is on disk); no clean shutdown runs.

	s2 := New(cfg)
	n, err := s2.Recover()
	if err != nil || n != 2 {
		t.Fatalf("recover = (%d, %v), want (2, nil)", n, err)
	}
	if got, gotFaults := meshBody(s2, "alpha"); got != wantAlpha || gotFaults != wantAlphaFaults {
		t.Fatalf("alpha after recovery\n got %s / %s\nwant %s / %s", got, gotFaults, wantAlpha, wantAlphaFaults)
	}
	if got, gotFaults := meshBody(s2, "beta"); got != wantBeta || gotFaults != wantBetaFaults {
		t.Fatalf("beta after recovery\n got %s / %s\nwant %s / %s", got, gotFaults, wantBeta, wantBetaFaults)
	}

	// The recovered journal keeps extending the same version sequence...
	var before MeshInfo
	decode(t, do(t, s2, "GET", "/v1/meshes/alpha", ""), &before)
	fr := mustFaults(t, s2, "alpha", `{"op":"add","at":{"x":2,"y":3}}`)
	if fr.SnapshotVersion != before.SnapshotVersion+1 {
		t.Fatalf("post-recovery commit version %d, want %d", fr.SnapshotVersion, before.SnapshotVersion+1)
	}
	// ...and routing still works on the recovered topology.
	rec := do(t, s2, "POST", "/v1/meshes/beta/route", `{"src":{"x":0,"y":0},"dst":{"x":7,"y":20}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("route on recovered mesh: HTTP %d: %s", rec.Code, rec.Body)
	}

	// Deleting a mesh withdraws its journal: the next boot serves one mesh.
	if rec := do(t, s2, "DELETE", "/v1/meshes/beta", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", rec.Code)
	}
	s3 := New(cfg)
	if n, err := s3.Recover(); err != nil || n != 1 {
		t.Fatalf("post-delete recover = (%d, %v), want (1, nil)", n, err)
	}
}

// TestVarzJournalAndWatchGauges checks the journal counters of a
// persistent server and the live watcher gauge on /metrics.
func TestVarzJournalAndWatchGauges(t *testing.T) {
	s := New(Config{DataDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustCreate(t, s, "w", 12, 12)
	mustFaults(t, s, "w", `{"op":"add","at":{"x":1,"y":1}}`)
	mustFaults(t, s, "w", `{"op":"add","at":{"x":2,"y":2}}`)
	sc, stop := watchStream(t, ts, "/v1/meshes/w/watch")
	defer stop()
	_ = sc

	deadline := time.Now().Add(2 * time.Second)
	for {
		m := scrape(t, s)
		if _, ok := m[`meshd_journal_records_total{mesh="w"}`]; !ok {
			t.Fatalf("no journal series on a persistent server: %v", m)
		}
		if r, v := m[`meshd_journal_records_total{mesh="w"}`], m[`meshd_journal_version{mesh="w"}`]; r != 2 || v != 3 {
			t.Fatalf("journal records=%v version=%v, want 2 records at v3", r, v)
		}
		if v := m[`meshd_snapshot_version{mesh="w"}`]; v != 3 {
			t.Fatalf("snapshot version = %v, want 3", v)
		}
		watchers := m[`meshd_watchers{mesh="w"}`]
		if watchers == 1 {
			break // the stream handler has subscribed
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchers = %v, want 1", watchers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchValidation covers the endpoint's error paths.
func TestWatchValidation(t *testing.T) {
	s := New(Config{})
	if rec := do(t, s, "GET", "/v1/meshes/ghost/watch", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("watch on missing mesh: HTTP %d", rec.Code)
	}
	mustCreate(t, s, "w", 8, 8)
	for _, q := range []string{"banana", "99"} {
		// Undecodable cursors and cursors ahead of the published version
		// (a stale cursor from a deleted-and-recreated name) are both
		// rejected — trusting the latter would silently suppress every
		// commit at or below it as a duplicate.
		rec := do(t, s, "GET", "/v1/meshes/w/watch?from="+q, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("from=%s: HTTP %d, want 400", q, rec.Code)
		}
		var eb errorBody
		decode(t, rec, &eb)
		if eb.Error.Code != CodeBadRequest {
			t.Fatalf("from=%s code = %s", q, eb.Error.Code)
		}
	}
}

// TestFaultsRefusedOnSickJournal: once a mesh's journal cannot record
// (here: its directory is torn away so the checkpoint compaction fails),
// the commit that hit the failure and every later transaction surface
// STORAGE instead of ACKing state the next boot would silently lose.
func TestFaultsRefusedOnSickJournal(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{DataDir: dir, Journal: journal.Options{CheckpointEvery: 1}})
	mustCreate(t, s, "w", 8, 8)
	mustFaults(t, s, "w", `{"op":"add","at":{"x":1,"y":1}}`)
	if err := os.RemoveAll(filepath.Join(dir, "w")); err != nil {
		t.Fatal(err)
	}
	// The commit whose compaction fails still returns 200 — its record
	// reached the WAL before the checkpoint attempt, so it IS journaled —
	// but the failure latches.
	rec := do(t, s, "POST", "/v1/meshes/w/faults", `{"ops":[{"op":"add","at":{"x":2,"y":2}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("commit that trips the journal failure: HTTP %d: %s", rec.Code, rec.Body)
	}
	// The sickness is sticky: every later transaction is refused up front
	// rather than ACKing state the next boot would silently lose.
	rec = do(t, s, "POST", "/v1/meshes/w/faults", `{"ops":[{"op":"add","at":{"x":3,"y":3}}]}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("follow-up commit: HTTP %d, want refused STORAGE: %s", rec.Code, rec.Body)
	}
	var eb errorBody
	decode(t, rec, &eb)
	if eb.Error.Code != CodeStorage {
		t.Fatalf("refused commit code = %s, want STORAGE", eb.Error.Code)
	}
	// Reads and routing still serve the in-memory state.
	if rec := do(t, s, "GET", "/v1/meshes/w", ""); rec.Code != http.StatusOK {
		t.Fatalf("get after sick journal: HTTP %d", rec.Code)
	}
}

// TestRecoverSkipsAbandonedDir: a half-created journal directory (the
// crash window of an interrupted create — no checkpoint, no WAL bytes)
// must not brick recovery; it is withdrawn and the healthy meshes boot.
func TestRecoverSkipsAbandonedDir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}
	s1 := New(cfg)
	mustCreate(t, s1, "good", 8, 8)
	mustFaults(t, s1, "good", `{"op":"add","at":{"x":1,"y":1}}`)
	if err := os.Mkdir(filepath.Join(dir, "husk"), 0o755); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	n, err := s2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("recover with husk = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "husk")); !os.IsNotExist(err) {
		t.Fatal("abandoned husk dir not withdrawn")
	}
	if rec := do(t, s2, "GET", "/v1/meshes/good", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthy mesh lost: HTTP %d", rec.Code)
	}
}

// TestCreateJournalCollision: with a data dir, a leftover journal
// directory for an unregistered name is a storage-level conflict — the
// create fails with STORAGE rather than silently shadowing history.
func TestCreateJournalCollision(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{DataDir: dir})
	mustCreate(t, s1, "w", 8, 8)
	// A second server over the same dir that did NOT recover: the name
	// is free in its registry but taken on disk.
	s2 := New(Config{DataDir: dir})
	rec := do(t, s2, "POST", "/v1/meshes", `{"name":"w","width":8,"height":8}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("colliding create: HTTP %d: %s", rec.Code, rec.Body)
	}
	var eb errorBody
	decode(t, rec, &eb)
	if eb.Error.Code != CodeStorage {
		t.Fatalf("colliding create code = %s, want STORAGE", eb.Error.Code)
	}
}
