package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	meshroute "repro"
)

// fuzzReplica is the Replica of one 8x8 mesh, applying versions the way
// server.ApplyDelta does: a version at or below the current one is a
// duplicate and ignored, a version more than one past it fails with
// ErrOutOfSync, and an out-of-mesh coordinate fails the delta. Every call
// also checks the follower's cursor: it never moves back, and an accepted
// delta is exactly one past it.
type fuzzReplica struct {
	t       *testing.T
	tail    *tail
	version uint64
	cursor  uint64 // the tail's AppliedVersion at the previous call
}

// checkCursor asserts the tail's AppliedVersion never decreases.
func (r *fuzzReplica) checkCursor() uint64 {
	cur := r.tail.snapshot().AppliedVersion
	if cur < r.cursor {
		r.t.Fatalf("follower applied version went back from v%d to v%d", r.cursor, cur)
	}
	r.cursor = cur
	return cur
}

func (r *fuzzReplica) UpsertMesh(name string, width, height int, faults []meshroute.Coord, version uint64) error {
	r.checkCursor()
	if version < r.version {
		r.t.Fatalf("snapshot install moved the replica back from v%d to v%d", r.version, version)
	}
	r.version = version
	return nil
}

func (r *fuzzReplica) ApplyDelta(name string, version uint64, adds, repairs []meshroute.Coord) error {
	applied := r.checkCursor()
	if version <= r.version {
		return nil
	}
	if version != r.version+1 {
		return fmt.Errorf("replica at v%d cannot apply v%d: %w", r.version, version, ErrOutOfSync)
	}
	for _, cs := range [][]meshroute.Coord{adds, repairs} {
		for _, c := range cs {
			if c.X < 0 || c.X >= 8 || c.Y < 0 || c.Y >= 8 {
				return fmt.Errorf("delta v%d: %v outside the 8x8 mesh", version, c)
			}
		}
	}
	if version != applied+1 {
		r.t.Fatalf("replica accepted v%d while the follower had applied v%d", version, applied)
	}
	r.version = version
	return nil
}

func (r *fuzzReplica) MeshVersion(string) (uint64, bool) { return r.version, true }

func (r *fuzzReplica) DropMesh(string) {}

// leaderVersion is the highest version body announces on any line (event,
// heartbeat or gap end), at least floor: the version of the snapshot a
// leader consistent with that stream serves to a healing follower.
func leaderVersion(body []byte, floor uint64) uint64 {
	v := floor
	for _, line := range bytes.Split(body, []byte("\n")) {
		var item struct {
			Event     *struct{ Version uint64 } `json:"event"`
			Gap       *struct{ To uint64 }      `json:"gap"`
			Heartbeat *struct{ Version uint64 } `json:"heartbeat"`
		}
		if json.Unmarshal(line, &item) != nil {
			continue
		}
		if item.Event != nil {
			v = max(v, item.Event.Version)
		}
		if item.Gap != nil {
			v = max(v, item.Gap.To)
		}
		if item.Heartbeat != nil {
			v = max(v, item.Heartbeat.Version)
		}
	}
	return v
}

// FuzzFollowerStream serves the fuzz input as a leader's watch NDJSON for
// one mesh and drives one tail.once from version 1 over it. Heals fetch a
// fixed 8x8 mesh whose snapshot version is the highest the stream
// announces. The tail must not panic, must end with an error (a watch
// stream never ends cleanly), must never move its applied version back,
// and must hand the replica only deltas exactly one past that version.
func FuzzFollowerStream(f *testing.F) {
	for _, body := range []string{
		`{"event":{"version":2,"adds":[{"x":1,"y":1}]}}` + "\n" + `{"event":{"version":3,"repairs":[{"x":1,"y":1}]}}` + "\n",
		`{"event":{"version":2}}` + "\n" + `{"gap":{"from":3,"to":5}}` + "\n" + `{"event":{"version":6,"adds":[{"x":2,"y":2}]}}` + "\n",
		`{"heartbeat":{"version":4}}` + "\n" + `{"event":{"version":4}}` + "\n",
		`{"event":{"version":2}}` + "\n" + `{"stream_error":{"code":"MESH_NOT_FOUND","message":"mesh deleted"}}` + "\n",
		`{"stream_error":{"code":"CANCELED","message":"server draining"}}` + "\n",
		`{"event":{"version":2,"adds":[{"x":1,"y":1}]}}` + "\n" + `{"event":{"version":3,"adds":[{"x":`,
		`{"event":{"version":2,"adds":[{"x":99,"y":0}]}}` + "\n" + `{"event":{"version":3}}` + "\n",
		`{"event":{"version":2}}` + "\n" + `{"event":{"version":2}}` + "\n" + `{"event":{"version":1}}` + "\n" + `{"event":{"version":3}}` + "\n",
	} {
		f.Add([]byte(body))
	}
	// One leader serves every input; inputs run one at a time, and the
	// mutex only orders the handlers' reads after the input's writes.
	var (
		mu     sync.Mutex
		body   []byte
		healAt uint64
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meshes/m", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"name":"m","width":8,"height":8}`)
	})
	mux.HandleFunc("GET /v1/meshes/m/faults", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		v := healAt
		mu.Unlock()
		fmt.Fprintf(w, `{"count":1,"faults":[{"x":3,"y":3}],"snapshot_version":%d}`, v)
	})
	mux.HandleFunc("GET /v1/meshes/m/watch", func(w http.ResponseWriter, _ *http.Request) {
		// Unlocked while writing: a heal mid-stream fetches /faults
		// before it reads the rest of the body.
		mu.Lock()
		b := body
		mu.Unlock()
		w.Write(b)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f.Fuzz(func(t *testing.T, in []byte) {
		mu.Lock()
		body, healAt = in, leaderVersion(in, 1)
		mu.Unlock()

		rep := &fuzzReplica{t: t, version: 1, cursor: 1}
		fol, err := New(Config{Leader: srv.URL, Replica: rep, Client: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		tl := &tail{f: fol, name: "m", cancel: func() {}, done: make(chan struct{}), synced: true}
		tl.stats.AppliedVersion = 1
		rep.tail = tl

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := tl.once(ctx); err == nil {
			t.Fatalf("tail.once returned nil at the end of the stream")
		}
		if got := rep.checkCursor(); got != rep.version {
			t.Fatalf("follower ended at v%d, replica at v%d", got, rep.version)
		}
	})
}
