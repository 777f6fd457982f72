package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// FuzzWireRequests posts arbitrary bodies to the route, batch and faults
// endpoints of a small seeded mesh through Handler. Whatever the body,
// the server must not panic and must answer either 200 with a body of the
// documented shape, or the status statusForCode gives for a documented
// wire code other than INTERNAL. Every NDJSON line of a 200 batch carries
// exactly one of response, error or stream_error. Wired into `make
// fuzz-smoke` (and the CI workflow) with a short -fuzztime.
func FuzzWireRequests(f *testing.F) {
	for _, seed := range []struct {
		kind uint8
		body string
	}{
		{0, `{"src":{"x":5,"y":2},"dst":{"x":5,"y":9}}`},
		{0, `{"src":{"x":0,"y":0},"dst":{"x":11,"y":11},"algorithm":"rb1","policy":"xfirst","max_hops":3}`},
		{0, `{"src":{"x":5,"y":5},"dst":{"x":40,"y":-1}}`},
		{1, `{"pairs":[{"src":{"x":5,"y":2},"dst":{"x":5,"y":9}},{"src":{"x":4,"y":6},"dst":{"x":0,"y":0}}],"workers":4096,"no_oracle":true}`},
		{1, `{"pairs":[],"algorithm":"ecube"}`},
		{2, `{"ops":[{"op":"add","at":{"x":1,"y":1}},{"op":"repair","at":{"x":5,"y":5}}]}`},
		{2, `{"ops":[{"op":"link","a":{"x":1,"y":1},"b":{"x":2,"y":1}},{"op":"link","a":{"x":1,"y":1},"b":{"x":3,"y":1}}]}`},
		{2, `{"ops":[{"op":"inject_random","count":500,"seed":1}]}`},
		{2, `{"ops":[{"op":"add"}]} trailing`},
		{1, `not json`},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}
	paths := []string{"/v1/meshes/m/route", "/v1/meshes/m/route/batch", "/v1/meshes/m/faults"}

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		s := New(Config{})
		mustCreate(t, s, "m", 12, 12)
		mustFaults(t, s, "m", exampleFaults)
		path := paths[int(kind)%len(paths)]
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))

		if w.Code != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("%s: HTTP %d with undecodable body %q: %v", path, w.Code, w.Body, err)
			}
			if code := eb.Error.Code; code == CodeInternal || !slices.Contains(errorCodes, code) || w.Code != statusForCode(code) {
				t.Fatalf("%s: HTTP %d with code %q outside the documented taxonomy: %s", path, w.Code, code, w.Body)
			}
			return
		}
		switch int(kind) % len(paths) {
		case 0:
			var resp RouteWireResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("route: undecodable 200 body %q: %v", w.Body, err)
			}
		case 1:
			sc := bufio.NewScanner(w.Body)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var item BatchWireItem
				if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
					t.Fatalf("batch: undecodable line %q: %v", sc.Bytes(), err)
				}
				set := 0
				for _, present := range []bool{item.Response != nil, item.Error != nil, item.StreamError != nil} {
					if present {
						set++
					}
				}
				if set != 1 {
					t.Fatalf("batch: line %q carries %d of response, error and stream_error, want 1", sc.Bytes(), set)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("batch: scan: %v", err)
			}
		case 2:
			var resp FaultsWireResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("faults: undecodable 200 body %q: %v", w.Body, err)
			}
		}
	})
}
