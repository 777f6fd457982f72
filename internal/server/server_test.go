package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	meshroute "repro"
)

// do performs one in-process request against the server's handler.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decode unmarshals a JSON response body into v.
func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
}

// mustCreate registers a mesh or fails the test.
func mustCreate(t *testing.T, s *Server, name string, w, h int) {
	t.Helper()
	rec := do(t, s, "POST", "/v1/meshes",
		fmt.Sprintf(`{"name":%q,"width":%d,"height":%d}`, name, w, h))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create %s: HTTP %d: %s", name, rec.Code, rec.Body)
	}
}

// mustFaults applies a fault transaction or fails the test.
func mustFaults(t *testing.T, s *Server, name, ops string) FaultsWireResponse {
	t.Helper()
	rec := do(t, s, "POST", "/v1/meshes/"+name+"/faults", `{"ops":[`+ops+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("faults on %s: HTTP %d: %s", name, rec.Code, rec.Body)
	}
	var resp FaultsWireResponse
	decode(t, rec, &resp)
	return resp
}

// exampleFaults is the 12x12 anti-diagonal configuration of the package
// example: one 3x3 MCC, (5,2)->(5,9) routes in 11 hops.
const exampleFaults = `{"op":"add","at":{"x":4,"y":6}},{"op":"add","at":{"x":5,"y":5}},{"op":"add","at":{"x":6,"y":4}}`

func TestRegistryLifecycle(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "a", 8, 4)
	mustCreate(t, s, "b", 5, 5)

	var list MeshList
	rec := do(t, s, "GET", "/v1/meshes", "")
	decode(t, rec, &list)
	if len(list.Meshes) != 2 || list.Meshes[0].Name != "a" || list.Meshes[1].Name != "b" {
		t.Fatalf("list = %+v", list)
	}
	if list.Meshes[0].Width != 8 || list.Meshes[0].Height != 4 {
		t.Fatalf("mesh a dims = %+v", list.Meshes[0])
	}

	var info MeshInfo
	rec = do(t, s, "GET", "/v1/meshes/b", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get b: HTTP %d", rec.Code)
	}
	decode(t, rec, &info)
	if info.Connected == nil || !*info.Connected {
		t.Fatalf("fault-free mesh reported disconnected: %+v", info)
	}

	if rec = do(t, s, "DELETE", "/v1/meshes/a", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete a: HTTP %d", rec.Code)
	}
	if rec = do(t, s, "GET", "/v1/meshes/a", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("get deleted a: HTTP %d", rec.Code)
	}
	if rec = do(t, s, "DELETE", "/v1/meshes/a", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete a: HTTP %d", rec.Code)
	}
}

func TestCreateValidation(t *testing.T) {
	s := New(Config{MaxNodes: 100, MaxMeshes: 2})
	cases := []struct {
		name string
		body string
		code int
		wire string
	}{
		{"zero width", `{"name":"m","width":0,"height":5}`, 400, "OUTSIDE_MESH"},
		{"negative height", `{"name":"m","width":5,"height":-1}`, 400, "OUTSIDE_MESH"},
		{"over node cap", `{"name":"m","width":11,"height":10}`, 400, "OUTSIDE_MESH"},
		{"overflowing node count", `{"name":"m","width":4294967296,"height":4294967296}`, 400, "OUTSIDE_MESH"},
		{"bad name", `{"name":"no spaces","width":5,"height":5}`, 400, "BAD_REQUEST"},
		{"empty name", `{"name":"","width":5,"height":5}`, 400, "BAD_REQUEST"},
		{"unknown field", `{"name":"m","width":5,"height":5,"depth":2}`, 400, "BAD_REQUEST"},
		{"not json", `width=5`, 400, "BAD_REQUEST"},
	}
	for _, tc := range cases {
		rec := do(t, s, "POST", "/v1/meshes", tc.body)
		var eb errorBody
		decode(t, rec, &eb)
		if rec.Code != tc.code || eb.Error.Code != tc.wire {
			t.Errorf("%s: HTTP %d %s, want %d %s (%s)",
				tc.name, rec.Code, eb.Error.Code, tc.code, tc.wire, rec.Body)
		}
	}

	mustCreate(t, s, "one", 5, 5)
	rec := do(t, s, "POST", "/v1/meshes", `{"name":"one","width":5,"height":5}`)
	var eb errorBody
	decode(t, rec, &eb)
	if rec.Code != http.StatusConflict || eb.Error.Code != CodeMeshExists {
		t.Fatalf("duplicate: HTTP %d %s", rec.Code, eb.Error.Code)
	}
	mustCreate(t, s, "two", 5, 5)
	rec = do(t, s, "POST", "/v1/meshes", `{"name":"three","width":5,"height":5}`)
	decode(t, rec, &eb)
	if rec.Code != http.StatusTooManyRequests || eb.Error.Code != CodeRegistryFull {
		t.Fatalf("over mesh cap: HTTP %d %s", rec.Code, eb.Error.Code)
	}
}

// TestRouteMatchesLibrary locks the HTTP route path to the library: the
// same mesh, faults, and request must produce an identical walk and
// oracle report through both surfaces.
func TestRouteMatchesLibrary(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 12, 12)
	mustFaults(t, s, "m", exampleFaults)

	ref := meshroute.New(12, 12)
	err := ref.Apply(func(tx *meshroute.Tx) error {
		for _, c := range []meshroute.Coord{meshroute.C(4, 6), meshroute.C(5, 5), meshroute.C(6, 4)} {
			if err := tx.AddFault(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, algo := range []string{"ecube", "rb1", "rb2", "rb3"} {
		rec := do(t, s, "POST", "/v1/meshes/m/route",
			fmt.Sprintf(`{"src":{"x":5,"y":2},"dst":{"x":5,"y":9},"algorithm":%q}`, algo))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", algo, rec.Code, rec.Body)
		}
		var got RouteWireResponse
		decode(t, rec, &got)

		a, _ := parseAlgorithm(algo)
		want, err := ref.Route(context.Background(),
			meshroute.RouteRequest{Src: meshroute.C(5, 2), Dst: meshroute.C(5, 9)},
			meshroute.WithAlgorithm(a))
		if err != nil {
			t.Fatalf("%s: library route: %v", algo, err)
		}
		if got.Hops != want.Hops || got.Phases != want.Phases || got.DetourHops != want.DetourHops {
			t.Errorf("%s: wire (hops=%d phases=%d detour=%d) != library (hops=%d phases=%d detour=%d)",
				algo, got.Hops, got.Phases, got.DetourHops, want.Hops, want.Phases, want.DetourHops)
		}
		if len(got.Path) != len(want.Path) {
			t.Fatalf("%s: path length %d != %d", algo, len(got.Path), len(want.Path))
		}
		for i := range got.Path {
			if got.Path[i].coord() != want.Path[i] {
				t.Errorf("%s: path[%d] = %v, want %v", algo, i, got.Path[i], want.Path[i])
			}
		}
		if got.Oracle == nil || got.Oracle.Optimal != want.Oracle.Optimal ||
			got.Oracle.Shortest != want.Oracle.Shortest ||
			got.Oracle.ManhattanFeasible != want.Oracle.ManhattanFeasible {
			t.Errorf("%s: oracle %+v != %+v", algo, got.Oracle, want.Oracle)
		}
	}
}

// TestErrorBodiesGolden locks the exact JSON wire form of every
// documented sentinel. These bodies are the protocol: changing one is a
// breaking API change and must be deliberate.
func TestErrorBodiesGolden(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 12, 12)
	mustFaults(t, s, "m", exampleFaults)
	// Seal the origin corner to make (0,0) unreachable: UNREACHABLE with
	// the oracle, ABORTED (walled in) without it.
	mustCreate(t, s, "sealed", 6, 6)
	mustFaults(t, s, "sealed",
		`{"op":"add","at":{"x":1,"y":0}},{"op":"add","at":{"x":1,"y":1}},{"op":"add","at":{"x":0,"y":1}}`)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		golden string
	}{
		{
			name: "outside mesh", method: "POST", path: "/v1/meshes/m/route",
			body:   `{"src":{"x":-1,"y":0},"dst":{"x":3,"y":3}}`,
			status: 400,
			golden: `{"error":{"code":"OUTSIDE_MESH","message":"src (-1,0) outside the 12x12 mesh"}}`,
		},
		{
			name: "faulty endpoint", method: "POST", path: "/v1/meshes/m/route",
			body:   `{"src":{"x":5,"y":5},"dst":{"x":3,"y":3}}`,
			status: 409,
			golden: `{"error":{"code":"FAULTY_ENDPOINT","message":"meshroute: engine: faulty endpoint in (5,5) -> (3,3)"}}`,
		},
		{
			name: "unreachable", method: "POST", path: "/v1/meshes/sealed/route",
			body:   `{"src":{"x":5,"y":5},"dst":{"x":0,"y":0}}`,
			status: 409,
			golden: `{"error":{"code":"UNREACHABLE","message":"meshroute: (0,0) unreachable from (5,5): destination unreachable"}}`,
		},
		{
			name: "aborted", method: "POST", path: "/v1/meshes/sealed/route",
			body:   `{"src":{"x":0,"y":0},"dst":{"x":5,"y":5},"no_oracle":true,"max_hops":2}`,
			status: 422,
			golden: `{"error":{"code":"ABORTED","message":"meshroute: RB2 (0,0) -> (5,5) aborted after 0 hops: walled in","abort":{"algorithm":"rb2","reason":"walled in","hops":0,"path":[{"x":0,"y":0}],"wall_flips":0,"downgraded":true}}}`,
		},
		{
			name: "invalid fault count", method: "POST", path: "/v1/meshes/m/faults",
			body:   `{"ops":[{"op":"inject_random","count":-3}]}`,
			status: 400,
			golden: `{"error":{"code":"INVALID_FAULT_COUNT","message":"meshroute: transaction rolled back: op 0 (inject_random): fault: invalid fault count: -3 is negative","op_index":0}}`,
		},
		{
			name: "not adjacent", method: "POST", path: "/v1/meshes/m/faults",
			body:   `{"ops":[{"op":"link","a":{"x":1,"y":1},"b":{"x":3,"y":1}}]}`,
			status: 400,
			golden: `{"error":{"code":"NOT_ADJACENT","message":"meshroute: transaction rolled back: op 0 (link): fault: link (1,1)-(3,1): link endpoints are not adjacent","op_index":0}}`,
		},
		{
			name: "mesh not found", method: "POST", path: "/v1/meshes/ghost/route",
			body:   `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`,
			status: 404,
			golden: `{"error":{"code":"MESH_NOT_FOUND","message":"mesh \"ghost\" not found"}}`,
		},
		{
			name: "bad algorithm", method: "POST", path: "/v1/meshes/m/route",
			body:   `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1},"algorithm":"dijkstra"}`,
			status: 400,
			golden: `{"error":{"code":"BAD_REQUEST","message":"unknown algorithm \"dijkstra\" (want ecube, rb1, rb2, or rb3)"}}`,
		},
		{
			name: "empty batch", method: "POST", path: "/v1/meshes/m/route/batch",
			body:   `{"pairs":[]}`,
			status: 400,
			golden: `{"error":{"code":"BAD_REQUEST","message":"batch has no pairs"}}`,
		},
		{
			name: "unknown op", method: "POST", path: "/v1/meshes/m/faults",
			body:   `{"ops":[{"op":"explode"}]}`,
			status: 400,
			golden: `{"error":{"code":"BAD_REQUEST","message":"meshroute: transaction rolled back: op 0 (explode): unknown op \"explode\" (want add, repair, link, or inject_random)","op_index":0}}`,
		},
	}
	for _, tc := range cases {
		rec := do(t, s, tc.method, tc.path, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body)
		}
		if got := strings.TrimSpace(rec.Body.String()); got != tc.golden {
			t.Errorf("%s: body\n got %s\nwant %s", tc.name, got, tc.golden)
		}
	}
}

// TestFaultsTransactionAtomic verifies the all-or-nothing contract over
// the wire: a transaction whose third op fails must leave the published
// configuration (and snapshot version) untouched by the first two.
func TestFaultsTransactionAtomic(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 8, 8)
	var before MeshInfo
	decode(t, do(t, s, "GET", "/v1/meshes/m", ""), &before)

	rec := do(t, s, "POST", "/v1/meshes/m/faults",
		`{"ops":[{"op":"add","at":{"x":1,"y":1}},{"op":"add","at":{"x":2,"y":2}},{"op":"add","at":{"x":99,"y":99}}]}`)
	var eb errorBody
	decode(t, rec, &eb)
	if rec.Code != http.StatusBadRequest || eb.Error.Code != meshroute.CodeOutsideMesh {
		t.Fatalf("bad op: HTTP %d %s", rec.Code, eb.Error.Code)
	}
	if eb.Error.OpIndex == nil || *eb.Error.OpIndex != 2 {
		t.Fatalf("op_index = %v, want 2", eb.Error.OpIndex)
	}

	var after MeshInfo
	decode(t, do(t, s, "GET", "/v1/meshes/m", ""), &after)
	if after.Faults != before.Faults || after.SnapshotVersion != before.SnapshotVersion {
		t.Fatalf("rolled-back transaction changed state: before %+v after %+v", before, after)
	}

	// The same first two ops commit as exactly one snapshot when valid.
	resp := mustFaults(t, s, "m", `{"op":"add","at":{"x":1,"y":1}},{"op":"add","at":{"x":2,"y":2}}`)
	if resp.Faults != 2 || resp.SnapshotVersion != before.SnapshotVersion+1 {
		t.Fatalf("commit: %+v, want 2 faults at version %d", resp, before.SnapshotVersion+1)
	}
}

// batchLines parses an NDJSON body.
func batchLines(t *testing.T, body string) []BatchWireItem {
	t.Helper()
	var items []BatchWireItem
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item BatchWireItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		items = append(items, item)
	}
	return items
}

// TestBatchStreamRoundTrip runs a full batch over the wire and checks
// every pair is answered exactly once with the library's result.
func TestBatchStreamRoundTrip(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 12, 12)
	mustFaults(t, s, "m", exampleFaults)

	var pairs []string
	type pt struct{ sx, sy, dx, dy int }
	var want []pt
	for i := 0; i < 20; i++ {
		p := pt{i % 12, (i * 5) % 12, (11 - i%12), (i * 7) % 12}
		want = append(want, p)
		pairs = append(pairs, fmt.Sprintf(
			`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, p.sx, p.sy, p.dx, p.dy))
	}
	rec := do(t, s, "POST", "/v1/meshes/m/route/batch",
		`{"pairs":[`+strings.Join(pairs, ",")+`],"workers":4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	items := batchLines(t, rec.Body.String())
	if len(items) != len(want) {
		t.Fatalf("%d lines, want %d", len(items), len(want))
	}

	ref := meshroute.New(12, 12)
	if err := ref.Apply(func(tx *meshroute.Tx) error {
		for _, c := range []meshroute.Coord{meshroute.C(4, 6), meshroute.C(5, 5), meshroute.C(6, 4)} {
			if err := tx.AddFault(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	seen := make(map[int]bool)
	for _, item := range items {
		if item.StreamError != nil {
			t.Fatalf("unexpected stream_error: %+v", item.StreamError)
		}
		if item.Index == nil || *item.Index < 0 || *item.Index >= len(want) || seen[*item.Index] {
			t.Fatalf("bad or duplicate index in %+v", item)
		}
		seen[*item.Index] = true
		p := want[*item.Index]
		res, err := ref.Route(context.Background(), meshroute.RouteRequest{
			Src: meshroute.C(p.sx, p.sy), Dst: meshroute.C(p.dx, p.dy),
		})
		switch {
		case err != nil:
			if item.Error == nil || item.Error.Code != meshroute.ErrorCode(err) {
				t.Errorf("pair %d: wire %+v, library error %v", *item.Index, item.Error, err)
			}
		case item.Response == nil:
			t.Errorf("pair %d: wire error %+v, library delivered", *item.Index, item.Error)
		default:
			if item.Response.Hops != res.Hops || item.Response.Oracle.Optimal != res.Oracle.Optimal {
				t.Errorf("pair %d: wire hops=%d optimal=%d, library hops=%d optimal=%d",
					*item.Index, item.Response.Hops, item.Response.Oracle.Optimal, res.Hops, res.Oracle.Optimal)
			}
		}
	}
}

// TestBatchDuringApply streams a batch while fault transactions commit
// concurrently: the batch must finish completely, and every item must
// have been served from the ONE snapshot pinned at batch start (no
// mixed-configuration results), while the transactions advance the
// published version underneath it. Run under -race this also hammers the
// snapshot/transaction interlock.
func TestBatchDuringApply(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 16, 16)
	mustFaults(t, s, "m", `{"op":"inject_random","count":20,"seed":7}`)
	var start MeshInfo
	decode(t, do(t, s, "GET", "/v1/meshes/m", ""), &start)

	var pairs []string
	for i := 0; i < 400; i++ {
		pairs = append(pairs, fmt.Sprintf(
			`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, i%16, (i*3)%16, (i*5)%16, (i*7)%16))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var txns int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := do(t, s, "POST", "/v1/meshes/m/faults",
				fmt.Sprintf(`{"ops":[{"op":"inject_random","count":20,"seed":%d}]}`, 100+i))
			if rec.Code != http.StatusOK {
				t.Errorf("churn txn: HTTP %d: %s", rec.Code, rec.Body)
				return
			}
			txns++
		}
	}()

	rec := do(t, s, "POST", "/v1/meshes/m/route/batch",
		`{"pairs":[`+strings.Join(pairs, ",")+`]}`)
	close(stop)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", rec.Code, rec.Body)
	}
	items := batchLines(t, rec.Body.String())
	if len(items) != len(pairs) {
		t.Fatalf("%d lines, want %d", len(items), len(pairs))
	}
	versions := make(map[uint64]int)
	for _, item := range items {
		if item.Response != nil {
			versions[item.Response.SnapshotVersion]++
		}
	}
	if len(versions) > 1 {
		t.Fatalf("batch items span %d snapshot versions: %v", len(versions), versions)
	}
	for v := range versions {
		if v < start.SnapshotVersion {
			t.Fatalf("batch served from version %d, older than start %d", v, start.SnapshotVersion)
		}
	}
	var end MeshInfo
	decode(t, do(t, s, "GET", "/v1/meshes/m", ""), &end)
	if txns > 0 && end.SnapshotVersion <= start.SnapshotVersion {
		t.Fatalf("%d transactions did not advance the version (%d -> %d)",
			txns, start.SnapshotVersion, end.SnapshotVersion)
	}
}

// TestDrainAbortsBatch exercises graceful shutdown over real HTTP: a
// streaming batch is cut mid-flight by Drain and must terminate its
// NDJSON stream with a CANCELED stream_error line; /healthz must flip to
// 503.
func TestDrainAbortsBatch(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	mustCreate(t, s, "m", 64, 64)
	mustFaults(t, s, "m", `{"op":"inject_random","count":400,"seed":3}`)

	// A big oracle-on batch on one worker takes long enough to drain
	// mid-stream.
	var pairs []string
	for i := 0; i < 5000; i++ {
		pairs = append(pairs, fmt.Sprintf(
			`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, i%64, (i*3)%64, (i*5)%64, (i*7)%64))
	}
	resp, err := http.Post(ts.URL+"/v1/meshes/m/route/batch", "application/json",
		strings.NewReader(`{"pairs":[`+strings.Join(pairs, ",")+`],"workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	var last BatchWireItem
	for sc.Scan() {
		if lines == 3 {
			// A few items in, drain the server.
			s.Drain(nil)
		}
		last = BatchWireItem{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if lines >= len(pairs)+1 {
		t.Fatalf("stream was not cut short: %d lines", lines)
	}
	if last.StreamError == nil || last.StreamError.Code != meshroute.CodeCanceled {
		t.Fatalf("last line = %+v, want stream_error CANCELED", last)
	}
	if !strings.Contains(last.StreamError.Message, ErrDraining.Error()) {
		t.Fatalf("stream_error message %q does not carry the drain cause", last.StreamError.Message)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: HTTP %d, want 503", resp2.StatusCode)
	}
}

// TestBeginDrainFlipsHealthzOnly verifies the two-phase shutdown:
// BeginDrain turns away the load balancer (healthz 503) while in-flight
// and new requests still serve; only Drain aborts work.
func TestBeginDrainFlipsHealthzOnly(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 8, 8)
	if rec := do(t, s, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain: HTTP %d", rec.Code)
	}
	s.BeginDrain()
	if rec := do(t, s, "GET", "/healthz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after BeginDrain: HTTP %d, want 503", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/meshes/m/route",
		`{"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`); rec.Code != http.StatusOK {
		t.Fatalf("route during grace: HTTP %d, want 200 (%s)", rec.Code, rec.Body)
	}
	s.Drain(nil)
	if rec := do(t, s, "POST", "/v1/meshes/m/route",
		`{"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`); rec.Code != StatusCanceled {
		t.Fatalf("route after Drain: HTTP %d, want %d", rec.Code, StatusCanceled)
	}
}

// TestVarz checks the serving counters on /metrics: route counts,
// delivery, mean hops, error tallies, histogram mass, and the oracle hit
// rate on a repeated pair.
func TestVarz(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 12, 12)
	mustFaults(t, s, "m", exampleFaults)

	for i := 0; i < 3; i++ {
		rec := do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":5,"y":2},"dst":{"x":5,"y":9}}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("route %d: HTTP %d", i, rec.Code)
		}
	}
	do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":5,"y":5},"dst":{"x":0,"y":0}}`) // FAULTY_ENDPOINT

	m := scrape(t, s)
	routes, delivered := m[`meshd_routes_total{mesh="m"}`], m[`meshd_routes_delivered_total{mesh="m"}`]
	if routes != 3 || delivered != 3 {
		t.Fatalf("routes=%v delivered=%v, want 3/3 (rejected endpoints never reach the engine)", routes, delivered)
	}
	if mean := m[`meshd_route_hops_total{mesh="m"}`] / delivered; mean != 11 {
		t.Fatalf("mean hops = %v, want 11", mean)
	}
	if n := m[`meshd_wire_errors_total{mesh="m",code="FAULTY_ENDPOINT"}`]; n != 1 {
		t.Fatalf("FAULTY_ENDPOINT errors = %v, want 1", n)
	}
	if mass := m[`meshd_walk_latency_seconds_bucket{mesh="m",le="+Inf"}`]; mass != 3 {
		t.Fatalf("histogram mass = %v, want 3", mass)
	}
	// Repeated identical pairs share one BFS field: 1 miss, then hits.
	hits, misses := m[`meshd_oracle_hits_total{mesh="m"}`], m[`meshd_oracle_misses_total{mesh="m"}`]
	if misses == 0 || hits < 2 || hits/(hits+misses) <= 0.5 {
		t.Fatalf("oracle hits=%v misses=%v, want cache reuse", hits, misses)
	}
	if v, f := m[`meshd_snapshot_version{mesh="m"}`], m[`meshd_faults{mesh="m"}`]; v != 2 || f != 3 {
		t.Fatalf("snapshot=%v faults=%v, want 2/3", v, f)
	}
}

// TestVarzRebuildGauges checks the incremental-rebuild counters on
// /metrics and the hit-rate attribution: a fault publication must not
// reset the oracle counters, and the published snapshot's empty oracle
// costs a warm source exactly one refill miss.
func TestVarzRebuildGauges(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 9, 9)
	// Wall on column 4: two disconnected halves, published incrementally.
	wall := make([]string, 0, 9)
	for y := 0; y < 9; y++ {
		wall = append(wall, fmt.Sprintf(`{"op":"add","at":{"x":4,"y":%d}}`, y))
	}
	mustFaults(t, s, "m", strings.Join(wall, ","))

	// Warm one BFS field in the west half: 1 miss, then hits.
	for i := 0; i < 3; i++ {
		if rec := do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":1,"y":1},"dst":{"x":1,"y":7}}`); rec.Code != http.StatusOK {
			t.Fatalf("route %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	const (
		hits   = `meshd_oracle_hits_total{mesh="m"}`
		misses = `meshd_oracle_misses_total{mesh="m"}`
	)
	m0 := scrape(t, s)
	if m0[`meshd_rebuild_delta_total{mesh="m"}`] == 0 || m0[`meshd_rebuild_cells_total{mesh="m"}`] == 0 {
		t.Fatalf("wall publication should be delta-scoped: %v", m0)
	}
	if m0[hits] < 2 || m0[misses] == 0 {
		t.Fatalf("warmup hits=%v misses=%v, want cache reuse", m0[hits], m0[misses])
	}

	// Publish a delta confined to the east half, then route from the
	// west source twice: one refill, then a hit.
	mustFaults(t, s, "m", `{"op":"add","at":{"x":7,"y":7}}`)
	for i := 0; i < 2; i++ {
		if rec := do(t, s, "POST", "/v1/meshes/m/route", `{"src":{"x":1,"y":1},"dst":{"x":1,"y":7}}`); rec.Code != http.StatusOK {
			t.Fatalf("post-publish route %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	m1 := scrape(t, s)
	if m1[hits] != m0[hits]+1 || m1[misses] != m0[misses]+1 {
		t.Fatalf("hits %v->%v misses %v->%v, want monotone counters with one refill miss and one hit",
			m0[hits], m1[hits], m0[misses], m1[misses])
	}
}

// TestRequestContextCancel verifies a client disconnect cancels the
// in-flight request (CANCELED counted, no leak) — the same path Drain
// uses, but per request.
func TestRequestContextCancel(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/meshes/m/route",
		strings.NewReader(`{"src":{"x":0,"y":0},"dst":{"x":11,"y":11}}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != StatusCanceled {
		t.Fatalf("canceled request: HTTP %d, want %d (%s)", w.Code, StatusCanceled, w.Body)
	}
	var eb errorBody
	decode(t, w, &eb)
	if eb.Error.Code != meshroute.CodeCanceled {
		t.Fatalf("code = %s, want CANCELED", eb.Error.Code)
	}
}

// TestDeleteDuringRoute deletes a mesh while requests are in flight on
// it: in-flight requests finish on their pinned snapshots, later lookups
// 404. Mostly a race-detector target.
func TestDeleteDuringRoute(t *testing.T) {
	s := New(Config{})
	mustCreate(t, s, "m", 12, 12)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := do(t, s, "POST", "/v1/meshes/m/route",
					`{"src":{"x":0,"y":0},"dst":{"x":11,"y":11},"no_oracle":true}`)
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("HTTP %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	do(t, s, "DELETE", "/v1/meshes/m", "")
	wg.Wait()
}

// TestBatchVersusBytesBudget guards the O(workers) streaming contract
// indirectly: a batch larger than the configured cap is rejected before
// any work happens.
func TestBatchPairCap(t *testing.T) {
	s := New(Config{MaxBatchPairs: 2})
	mustCreate(t, s, "m", 8, 8)
	rec := do(t, s, "POST", "/v1/meshes/m/route/batch",
		`{"pairs":[{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}},{"src":{"x":0,"y":0},"dst":{"x":2,"y":2}},{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}]}`)
	var eb errorBody
	decode(t, rec, &eb)
	if rec.Code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
		t.Fatalf("over-cap batch: HTTP %d %s", rec.Code, eb.Error.Code)
	}
}
