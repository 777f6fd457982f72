// Package cluster implements static-membership replication for meshd:
// a Follower that tails a leader's /v1/meshes/{name}/watch NDJSON
// streams and installs every fault delta into a local read-only replica
// at exactly the leader's snapshot versions.
package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	meshroute "repro"
	"repro/internal/telemetry"
)

// ErrOutOfSync reports that a replica cannot reach a replicated version
// by applying one delta — its local state has diverged from the leader
// stream (missed events, a leader restart, a competing writer). The
// follower heals it with a full snapshot refetch.
var ErrOutOfSync = errors.New("cluster: replica out of sync with leader stream")

// errMeshGone marks a tail whose mesh the leader deleted: terminal for
// the tail, not an error for the follower.
var errMeshGone = errors.New("cluster: mesh deleted on leader")

// Replica is the local half of a follower: the registry the tails
// install replicated state into. *server.Server implements it.
//
// The follower serializes calls per mesh (one tail goroutine each), but
// different meshes replicate concurrently, so implementations must be
// safe for concurrent use across names.
type Replica interface {
	// UpsertMesh installs (or atomically replaces) a mesh at a complete
	// replicated state: geometry, fault set, and the leader's exact
	// snapshot version. Used for initial sync and for healing gaps the
	// journal tail can no longer replay.
	UpsertMesh(name string, width, height int, faults []meshroute.Coord, version uint64) error
	// ApplyDelta applies one watch event so the mesh's next published
	// snapshot version is exactly version. A version at or below the
	// replica's current one is a duplicate and must be ignored (nil); a
	// version it cannot reach by one commit fails with ErrOutOfSync.
	ApplyDelta(name string, version uint64, adds, repairs []meshroute.Coord) error
	// MeshVersion reports the replica's published snapshot version.
	MeshVersion(name string) (uint64, bool)
	// DropMesh unregisters a mesh the leader deleted.
	DropMesh(name string)
}

// Config configures a Follower.
type Config struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Replica receives the replicated state.
	Replica Replica
	// Client issues the HTTP requests. Nil uses a client with no
	// timeout (watch streams are long-lived; cancellation comes from
	// the Run context).
	Client *http.Client
	// Resync is the mesh-list polling interval that discovers created
	// and deleted meshes. Default 2s.
	Resync time.Duration
	// ReconnectMin and ReconnectMax bound the per-tail exponential
	// backoff between stream reconnects. Defaults 100ms and 5s.
	ReconnectMin, ReconnectMax time.Duration
	// Logf, when set, receives replication progress and errors.
	Logf func(format string, args ...any)
}

// TailStats is a point-in-time snapshot of one mesh tail, surfaced as
// the follower's meshd_replication_* metric families.
type TailStats struct {
	// AppliedVersion is the last leader snapshot version durably
	// observed and published locally.
	AppliedVersion uint64
	// LeaderVersion is the highest version the leader has announced on
	// the stream (events and heartbeats); AppliedVersion lags it by the
	// replication delay.
	LeaderVersion uint64
	// BehindSince is the receipt time of the oldest leader announcement
	// not yet applied locally: stamped the moment the tail first observes
	// LeaderVersion ahead of AppliedVersion, cleared when it catches up.
	// Zero while caught up; its age is the replication lag in wall time
	// (meshd_replication_lag_seconds).
	BehindSince time.Time
	// Reconnects counts stream re-establishments (?from= re-resumes).
	Reconnects uint64
	// GapsHealed counts full snapshot refetches forced by gap events or
	// out-of-sync deltas.
	GapsHealed uint64
}

// Follower tails every mesh on one leader and mirrors it into a local
// Replica. Run drives it; Stats exposes per-mesh replication telemetry.
type Follower struct {
	cfg Config

	mu    sync.Mutex
	tails map[string]*tail
}

// New builds a Follower; Run must be called to start replication.
func New(cfg Config) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("cluster: follower needs a leader URL")
	}
	if cfg.Replica == nil {
		return nil, fmt.Errorf("cluster: follower needs a Replica")
	}
	cfg.Leader = strings.TrimRight(cfg.Leader, "/")
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Resync <= 0 {
		cfg.Resync = 2 * time.Second
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Follower{cfg: cfg, tails: make(map[string]*tail)}, nil
}

// Run replicates until ctx is canceled: it polls the leader's mesh list
// every Resync to start tails for new meshes and drop deleted ones, and
// each tail streams watch events into the Replica with its own
// reconnect/backoff loop. Run returns ctx.Err() after every tail has
// stopped, so callers may tear down the Replica once it returns.
func (f *Follower) Run(ctx context.Context) error {
	t := time.NewTicker(f.cfg.Resync)
	defer t.Stop()
	for {
		f.resync(ctx)
		select {
		case <-ctx.Done():
			f.stopAll()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Stats returns a snapshot of every live tail keyed by mesh name.
func (f *Follower) Stats() map[string]TailStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]TailStats, len(f.tails))
	for name, t := range f.tails {
		out[name] = t.snapshot()
	}
	return out
}

// resync reconciles the set of tails against the leader's mesh list.
// A failed list poll keeps existing tails running (their streams are
// the real replication path); meshes are dropped only on a successful
// poll that omits them, never on transport errors.
func (f *Follower) resync(ctx context.Context) {
	var list struct {
		Meshes []struct {
			Name string `json:"name"`
		} `json:"meshes"`
	}
	if err := f.getJSON(ctx, "/v1/meshes", telemetry.NewRequestID(), &list); err != nil {
		f.cfg.Logf("cluster: list meshes on %s: %v", f.cfg.Leader, err)
		return
	}
	live := make(map[string]struct{}, len(list.Meshes))
	for _, m := range list.Meshes {
		live[m.Name] = struct{}{}
	}

	f.mu.Lock()
	var stopped []*tail
	for name, t := range f.tails {
		if _, ok := live[name]; ok {
			continue
		}
		t.cancel()
		stopped = append(stopped, t)
		delete(f.tails, name)
	}
	for name := range live {
		if _, ok := f.tails[name]; ok {
			continue
		}
		tctx, cancel := context.WithCancel(ctx)
		t := &tail{f: f, name: name, cancel: cancel, done: make(chan struct{})}
		f.tails[name] = t
		go t.run(tctx)
	}
	f.mu.Unlock()

	for _, t := range stopped {
		<-t.done
		f.cfg.Replica.DropMesh(t.name)
		f.cfg.Logf("cluster: dropped mesh %q (deleted on leader)", t.name)
	}
}

// stopAll cancels every tail and waits for their goroutines, so Run
// returns with no replication activity left behind.
func (f *Follower) stopAll() {
	f.mu.Lock()
	tails := make([]*tail, 0, len(f.tails))
	for _, t := range f.tails {
		t.cancel()
		tails = append(tails, t)
	}
	f.tails = make(map[string]*tail)
	f.mu.Unlock()
	for _, t := range tails {
		<-t.done
	}
}

// getJSON fetches one leader endpoint. reqID, when non-empty, is sent
// as X-Request-Id so the leader's access log ties the fetch to the
// replication operation that caused it (a refetch's two reads share
// one ID).
func (f *Follower) getJSON(ctx context.Context, path, reqID string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Leader+path, nil)
	if err != nil {
		return err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return errMeshGone
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tail replicates one mesh: an initial snapshot sync, then the watch
// stream, reconnecting with backoff and re-resuming via ?from= on every
// break. All Replica calls for the mesh happen on this goroutine, so
// applied versions move only forward.
type tail struct {
	f      *Follower
	name   string
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	stats  TailStats
	synced bool
}

func (t *tail) snapshot() TailStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *tail) run(ctx context.Context) {
	defer close(t.done)
	backoff := t.f.cfg.ReconnectMin
	for {
		err := t.once(ctx)
		if err == nil || errors.Is(err, errMeshGone) {
			// Deleted on the leader: drop the local mesh and retire the
			// tail. If the name was recreated, the next resync starts a
			// fresh tail that resyncs from a full snapshot.
			t.f.mu.Lock()
			if t.f.tails[t.name] == t {
				delete(t.f.tails, t.name)
			}
			t.f.mu.Unlock()
			t.f.cfg.Replica.DropMesh(t.name)
			return
		}
		if ctx.Err() != nil {
			return
		}
		t.f.cfg.Logf("cluster: mesh %q stream: %v (reconnecting in %v)", t.name, err, backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > t.f.cfg.ReconnectMax {
			backoff = t.f.cfg.ReconnectMax
		}
		t.mu.Lock()
		t.stats.Reconnects++
		t.mu.Unlock()
	}
}

// once performs one connected episode: a full snapshot sync if the
// replica has none (or lost sync), then the watch stream until it
// breaks. Returns nil only when the mesh is gone for good.
func (t *tail) once(ctx context.Context) error {
	if !t.synced {
		if err := t.refetch(ctx); err != nil {
			return err
		}
		t.synced = true
	}
	return t.stream(ctx)
}

// refetch installs the leader's full current state: geometry from the
// mesh info endpoint, then the fault list whose snapshot_version is the
// authoritative resume point. This is the gap-healing path — any
// version the journal tail cannot replay is recovered wholesale, so the
// replica never publishes a version it did not observe in full.
func (t *tail) refetch(ctx context.Context) error {
	// One request ID spans both reads, so the leader's access log shows
	// the refetch as a single correlated operation.
	reqID := telemetry.NewRequestID()
	var info struct {
		Width  int `json:"width"`
		Height int `json:"height"`
	}
	if err := t.f.getJSON(ctx, "/v1/meshes/"+url.PathEscape(t.name), reqID, &info); err != nil {
		return err
	}
	var faults struct {
		Faults          []meshroute.Coord `json:"faults"`
		SnapshotVersion uint64            `json:"snapshot_version"`
	}
	if err := t.f.getJSON(ctx, "/v1/meshes/"+url.PathEscape(t.name)+"/faults", reqID, &faults); err != nil {
		return err
	}
	if err := t.f.cfg.Replica.UpsertMesh(t.name, info.Width, info.Height, faults.Faults, faults.SnapshotVersion); err != nil {
		return fmt.Errorf("cluster: install snapshot v%d of %q: %w", faults.SnapshotVersion, t.name, err)
	}
	t.mu.Lock()
	t.stats.AppliedVersion = faults.SnapshotVersion
	if t.stats.LeaderVersion < faults.SnapshotVersion {
		t.stats.LeaderVersion = faults.SnapshotVersion
	}
	t.refreshBehindLocked()
	t.mu.Unlock()
	return nil
}

// refreshBehindLocked keeps the BehindSince stamp honest after any
// version movement: stamped (from receipt time, time.Now at the event
// that put us behind) when the tail first trails the leader, cleared
// the moment it catches up. Callers hold t.mu.
//
//meshlint:locked mu
func (t *tail) refreshBehindLocked() {
	if t.stats.AppliedVersion >= t.stats.LeaderVersion {
		t.stats.BehindSince = time.Time{}
	} else if t.stats.BehindSince.IsZero() {
		t.stats.BehindSince = time.Now()
	}
}

// heal refetches the full snapshot mid-stream (gap event, out-of-sync
// delta) and counts the heal. The stream stays connected: later events
// at or below the refetched version dedup via the applied cursor.
func (t *tail) heal(ctx context.Context, cause string) error {
	t.f.cfg.Logf("cluster: mesh %q healing by snapshot refetch: %s", t.name, cause)
	if err := t.refetch(ctx); err != nil {
		return err
	}
	t.mu.Lock()
	t.stats.GapsHealed++
	t.mu.Unlock()
	return nil
}

// stream opens the watch stream at ?from=applied and folds every NDJSON
// line into the replica until the connection breaks or the mesh dies.
func (t *tail) stream(ctx context.Context) error {
	t.mu.Lock()
	from := t.stats.AppliedVersion
	t.mu.Unlock()
	u := t.f.cfg.Leader + "/v1/meshes/" + url.PathEscape(t.name) + "/watch?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", telemetry.NewRequestID())
	resp, err := t.f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return errMeshGone
	case http.StatusBadRequest:
		// ?from= ahead of the leader's published version: the leader
		// lost history (wiped data dir, restart). Resync from scratch.
		io.Copy(io.Discard, resp.Body)
		t.synced = false
		return fmt.Errorf("cluster: resume v%d refused by leader (history lost)", from)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: watch status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var item struct {
			Event *struct {
				Version uint64            `json:"version"`
				Adds    []meshroute.Coord `json:"adds"`
				Repairs []meshroute.Coord `json:"repairs"`
			} `json:"event"`
			Gap *struct {
				From uint64 `json:"from"`
				To   uint64 `json:"to"`
			} `json:"gap"`
			Heartbeat *struct {
				Version uint64 `json:"version"`
			} `json:"heartbeat"`
			StreamError *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"stream_error"`
		}
		if err := json.Unmarshal(line, &item); err != nil {
			// A torn or truncated line means the rest of the stream
			// cannot be trusted; drop the connection and re-resume from
			// the last applied version.
			return fmt.Errorf("cluster: undecodable stream line (%v); re-resuming", err)
		}
		switch {
		case item.Event != nil:
			ev := item.Event
			t.mu.Lock()
			applied := t.stats.AppliedVersion
			if t.stats.LeaderVersion < ev.Version {
				t.stats.LeaderVersion = ev.Version
			}
			t.refreshBehindLocked() // stamp lag from event receipt
			t.mu.Unlock()
			if ev.Version <= applied {
				continue // duplicate of replayed history or a healed refetch
			}
			err := t.f.cfg.Replica.ApplyDelta(t.name, ev.Version, ev.Adds, ev.Repairs)
			if err != nil {
				if herr := t.heal(ctx, fmt.Sprintf("delta v%d: %v", ev.Version, err)); herr != nil {
					return herr
				}
				continue
			}
			t.mu.Lock()
			t.stats.AppliedVersion = ev.Version
			t.refreshBehindLocked()
			t.mu.Unlock()
		case item.Gap != nil:
			if err := t.heal(ctx, fmt.Sprintf("gap v%d..v%d", item.Gap.From, item.Gap.To)); err != nil {
				return err
			}
		case item.Heartbeat != nil:
			t.mu.Lock()
			if t.stats.LeaderVersion < item.Heartbeat.Version {
				t.stats.LeaderVersion = item.Heartbeat.Version
			}
			t.refreshBehindLocked()
			t.mu.Unlock()
		case item.StreamError != nil:
			if item.StreamError.Code == "MESH_NOT_FOUND" {
				return errMeshGone
			}
			return fmt.Errorf("cluster: stream error %s: %s", item.StreamError.Code, item.StreamError.Message)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cluster: stream read: %w", err)
	}
	return fmt.Errorf("cluster: leader closed the stream")
}
