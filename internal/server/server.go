// Package server implements meshd's HTTP JSON API: a multi-mesh registry
// over the meshroute engine, with shortest-path route serving, streaming
// NDJSON batches, atomic fault transactions, and serving metrics.
//
// # Wire protocol (v1)
//
//	POST   /v1/meshes                      create a mesh        CreateMeshRequest -> MeshInfo (201)
//	GET    /v1/meshes                      list meshes          -> MeshList
//	GET    /v1/meshes/{name}               inspect one mesh     -> MeshInfo (with connectivity)
//	DELETE /v1/meshes/{name}               unregister           -> 204
//	POST   /v1/meshes/{name}/route         route one pair       RouteWireRequest -> RouteWireResponse
//	POST   /v1/meshes/{name}/route/batch   streaming batch      BatchWireRequest -> NDJSON of BatchWireItem
//	POST   /v1/meshes/{name}/faults        atomic fault txn     FaultsWireRequest -> FaultsWireResponse
//	GET    /v1/meshes/{name}/faults        list faulty nodes    -> FaultList
//	GET    /v1/meshes/{name}/watch         fault-event stream   NDJSON of WatchWireItem (?from= resumes)
//	GET    /healthz                        liveness/drain state -> 200 ("ok") or 503 ("draining")
//	GET    /metrics                        Prometheus text exposition (see prom.go)
//
// Every non-2xx response is a JSON errorBody whose WireError.Code comes
// from the v1 taxonomy (meshroute.Code*) or the server codes of wire.go;
// the code alone determines the status (statusForCode). Requests are
// validated at this boundary — degenerate mesh dimensions and
// out-of-range coordinates are rejected as OUTSIDE_MESH 400s before they
// can reach (and panic) the mesh core.
//
// # Consistency
//
// Each registered mesh is an independent meshroute.Network: its own
// engine, snapshots, scratch pools, and distance oracle. One route (or
// one whole batch) is served from one pinned snapshot; a concurrent
// fault transaction never tears an in-flight request, it only moves the
// snapshot the NEXT request pins. Fault transactions are atomic: all ops
// of one /faults POST publish as exactly one snapshot, or none do.
//
// # Durability
//
// With Config.DataDir set, every mesh's fault history is journaled
// (internal/journal): one CRC-framed record per committed transaction,
// appended from the engine's publish hook before watchers are notified,
// compacted into checkpoints, and replayed by Recover on boot so a
// restarted server resumes every mesh at its exact pre-crash fault set
// and snapshot version. The watch endpoint streams the same commits live
// and uses the journal's retained tail to serve `?from=` resumes.
//
// # Shutdown
//
// Handlers derive their contexts from both the request and the server's
// base context. Drain cancels the base context with a cause, so
// in-flight streaming batches and watch streams stop promptly (their
// final NDJSON line is a stream_error with code CANCELED) while the HTTP
// listener — owned by the caller, see cmd/meshd — finishes draining
// connections.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	meshroute "repro"
	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
)

// ErrDraining is the default drain cause: requests aborted by shutdown
// report CANCELED with this cause in the message.
var ErrDraining = errors.New("server draining")

// Config tunes a Server. The zero value serves with the defaults.
type Config struct {
	// MaxNodes caps Width*Height per mesh (<= 0 means DefaultMaxNodes).
	// The cap bounds the memory one create can pin (labeling grids,
	// scratch pools, and oracle fields are all O(nodes)).
	MaxNodes int
	// MaxMeshes caps the registry size (<= 0 means DefaultMaxMeshes).
	MaxMeshes int
	// MaxBatchPairs caps the pairs of one batch request (<= 0 means
	// DefaultMaxBatchPairs). Streaming keeps memory at O(workers), so the
	// cap guards CPU, not memory.
	MaxBatchPairs int
	// DataDir, when set, makes mesh state durable: every registered mesh
	// gets a fault-transaction journal under DataDir/<name>, every
	// committed transaction is appended before its watchers are
	// notified, and Recover rebuilds the registry from disk on boot.
	// Empty (the default) serves from memory only, as before.
	DataDir string
	// Journal tunes the per-mesh journals (fsync policy, checkpoint
	// compaction interval); meaningful only with DataDir.
	Journal journal.Options
	// WatchBuffer bounds each /watch subscriber's event buffer
	// (<= 0 means meshroute.DefaultWatchBuffer). A consumer further
	// behind than this sees a gap line instead of the dropped events.
	WatchBuffer int
	// WatchHeartbeat is the idle keep-alive interval of /watch streams
	// (<= 0 means DefaultWatchHeartbeat).
	WatchHeartbeat time.Duration
	// Admission configures overload protection (per-tenant rate limits
	// and the global concurrency gate) for the compute-bearing POST
	// endpoints (route, batch, faults). The zero value admits everything.
	Admission admission.Config
	// FollowerOf, when set to a leader's base URL, makes this server a
	// read-only replica: the mutation endpoints (mesh create/delete,
	// fault transactions) refuse with NOT_LEADER carrying this address,
	// and the registry is fed by the replication layer
	// (internal/cluster via the Replica methods of replica.go) instead
	// of the wire. Mutually exclusive with DataDir — follower state is
	// rebuilt from the leader, not from a local journal.
	FollowerOf string
	// Logger, when set, receives one structured access record per
	// request (and slow-request records, see SlowThreshold) through the
	// Handler middleware. Nil disables access logging; X-Request-Id
	// assignment and echo happen regardless.
	Logger *slog.Logger
	// SlowThreshold, when > 0, emits a dedicated Warn-level record with
	// the full span breakdown for requests at or above this duration.
	SlowThreshold time.Duration
}

// The Config defaults.
const (
	DefaultMaxNodes       = 1 << 20
	DefaultMaxMeshes      = 64
	DefaultMaxBatchPairs  = 1 << 20
	DefaultWatchHeartbeat = 15 * time.Second
)

// maxBodyBytes bounds request bodies read into memory. Batch bodies are
// the largest legitimate payload: 1M pairs encode in well under 64 MiB.
const maxBodyBytes = 64 << 20

// meshNameRE validates registry names.
var meshNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// meshEntry is one registered mesh with its serving counters and, when
// the server persists (Config.DataDir), its transaction journal.
type meshEntry struct {
	name    string
	net     *meshroute.Network
	metrics *collector
	journal *journal.Journal // nil without DataDir
	// appendTimes rings the journal's per-version append/fsync timings so
	// handleFaults can attribute its own commit's journal spans; nil
	// without a journal.
	appendTimes *appendSpans
	deleted     chan struct{} // closed when the mesh is unregistered
	// resynced is closed when a replica snapshot refetch replaces this
	// entry wholesale (UpsertMesh over an existing name): its watch
	// streams terminate with WATCH_CLOSED so consumers re-resume against
	// the new Network. Nil on leader entries, which are never replaced.
	resynced chan struct{}
}

// Server is the meshd HTTP API: an http.Handler over a registry of named
// meshes. Construct with New; serve via Handler; stop in-flight work via
// Drain. Safe for concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool     // set by BeginDrain/Drain: /healthz -> 503
	base     context.Context // canceled (with cause) by Drain
	cancel   context.CancelCauseFunc

	// admission gates the POST endpoints; nil when Config.Admission is
	// disabled (the zero value).
	admission *admission.Controller

	// reg is the mesh registry core, shared by the leader mutation
	// paths, boot recovery, and the replica installation paths.
	reg *registry

	// replMu guards the replication-telemetry hook installed by
	// SetReplication (follower mode only).
	replMu sync.Mutex
	// replStats, when set, sources the /metrics replication families.
	//meshlint:guardedby replMu
	replStats func() map[string]cluster.TailStats
}

// New returns an empty Server.
func New(cfg Config) *Server {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = DefaultMaxNodes
	}
	if cfg.MaxMeshes <= 0 {
		cfg.MaxMeshes = DefaultMaxMeshes
	}
	if cfg.MaxBatchPairs <= 0 {
		cfg.MaxBatchPairs = DefaultMaxBatchPairs
	}
	if cfg.WatchBuffer <= 0 {
		cfg.WatchBuffer = meshroute.DefaultWatchBuffer
	}
	if cfg.WatchHeartbeat <= 0 {
		cfg.WatchHeartbeat = DefaultWatchHeartbeat
	}
	cfg.FollowerOf = strings.TrimRight(cfg.FollowerOf, "/")
	base, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:    cfg,
		start:  time.Now(),
		base:   base,
		cancel: cancel,
		reg:    newRegistry(cfg.MaxMeshes),
	}
	if cfg.Admission.Enabled() {
		s.admission = admission.New(cfg.Admission)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/meshes", s.handleCreateMesh)
	mux.HandleFunc("GET /v1/meshes", s.handleListMeshes)
	mux.HandleFunc("GET /v1/meshes/{name}", s.handleGetMesh)
	mux.HandleFunc("DELETE /v1/meshes/{name}", s.handleDeleteMesh)
	mux.HandleFunc("POST /v1/meshes/{name}/route", s.handleRoute)
	mux.HandleFunc("POST /v1/meshes/{name}/route/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/meshes/{name}/faults", s.handleFaults)
	mux.HandleFunc("GET /v1/meshes/{name}/faults", s.handleListFaults)
	mux.HandleFunc("GET /v1/meshes/{name}/watch", s.handleWatch)
	s.mux = mux
	return s
}

// Recover rebuilds the registry from Config.DataDir: every journal
// directory under it is replayed into a mesh serving the exact pre-crash
// fault set and snapshot version, with its journal reopened for further
// appends. Call once, before serving; without a DataDir it is a no-op.
// It returns the number of meshes recovered.
func (s *Server) Recover() (int, error) {
	if s.cfg.DataDir == "" {
		return 0, nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return 0, fmt.Errorf("server: data dir: %w", err)
	}
	dirs, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return 0, fmt.Errorf("server: data dir: %w", err)
	}
	n := 0
	for _, d := range dirs {
		if !d.IsDir() || !meshNameRE.MatchString(d.Name()) {
			continue
		}
		name := d.Name()
		dir := filepath.Join(s.cfg.DataDir, name)
		e, jopts := s.newMeshEntry(name)
		j, st, err := journal.Open(dir, jopts)
		if err != nil {
			if journal.Abandoned(dir) {
				// The crash window of an interrupted create: no checkpoint
				// and no WAL bytes means nothing was ever acknowledged.
				// Withdraw the husk instead of bricking every boot on it.
				_ = journal.Remove(dir)
				continue
			}
			return n, fmt.Errorf("server: recover mesh %q: %w", name, err)
		}
		e.journal = j
		e.net, err = meshroute.Restore(st.Width, st.Height, st.Faults, st.Version, s.engineOptions(e))
		if err != nil {
			j.Close()
			return n, fmt.Errorf("server: recover mesh %q: %w", name, err)
		}
		if err := s.reg.insert(e); err != nil {
			j.Close()
			return n, fmt.Errorf("server: recover mesh %q: %w", name, err)
		}
		n++
	}
	return n, nil
}

// newMeshEntry starts the entry of a mesh being created or recovered: a
// fresh collector and, on a persistent server, an append-span ring fed
// by the OnAppend hook of the returned journal options, so handleFaults
// can split its own commit's disk time out of the apply span. The caller
// opens the journal with those options into e.journal, then builds e.net
// with engineOptions(e).
func (s *Server) newMeshEntry(name string) (*meshEntry, journal.Options) {
	e := &meshEntry{name: name, metrics: newCollector(), deleted: make(chan struct{})}
	jopts := s.cfg.Journal
	if s.cfg.DataDir != "" {
		e.appendTimes = &appendSpans{}
		jopts.OnAppend = e.appendTimes.record
	}
	return e, jopts
}

// engineOptions returns the engine options of e's network: e's
// collector as the walk hook and, when e has a journal, the journal as
// the commit hook.
func (s *Server) engineOptions(e *meshEntry) engine.Options {
	opts := engine.Options{Metrics: e.metrics}
	if e.journal != nil {
		opts.OnPublish = publishToJournal(e.journal)
	}
	return opts
}

// publishToJournal adapts a journal into the engine's commit hook. The
// hook runs inside the writer critical section and BEFORE the facade's
// watch fan-out, so a watcher never observes an event whose journal
// record could trail behind it. Append failures latch in the journal
// (surfaced via /metrics, /healthz and Journal.Err), not in the commit
// path: routing availability is not held hostage to a sick disk.
func publishToJournal(j *journal.Journal) func(uint64, engine.Delta) {
	return func(version uint64, delta engine.Delta) {
		_ = j.Append(version, delta.Adds, delta.Repairs)
	}
}

// Handler returns the server's HTTP handler: the API mux behind the
// access-log middleware (request-ID assignment and echo always; one
// structured record per request when Config.Logger is set).
func (s *Server) Handler() http.Handler { return s.accessLog(s.mux) }

// BeginDrain flips /healthz to 503 so load balancers stop sending
// traffic, without touching in-flight work. Call it the moment shutdown
// starts; call Drain when the grace period for in-flight requests has
// elapsed. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain aborts in-flight work: every request context derived after and
// before this call is canceled with the given cause (nil means
// ErrDraining), streaming batches stop between items and mid-walk, and
// /healthz flips to 503 (if BeginDrain hasn't already). Drain does not
// close the HTTP listener — the owner of the http.Server pairs it with
// http.Server.Shutdown (see cmd/meshd). Idempotent; the first cause
// wins.
func (s *Server) Drain(cause error) {
	if cause == nil {
		cause = ErrDraining
	}
	s.draining.Store(true)
	s.cancel(cause)
}

// Draining reports whether BeginDrain or Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// requestContext derives a handler context canceled by whichever comes
// first: the request (client disconnect) or Drain (with its cause).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(r.Context())
	if s.base.Err() != nil {
		// Already drained: cancel synchronously (AfterFunc on a done
		// context fires in a goroutine, which would let a fast request
		// slip through after Drain).
		cancel(context.Cause(s.base))
		return ctx, func() { cancel(nil) }
	}
	stop := context.AfterFunc(s.base, func() { cancel(context.Cause(s.base)) })
	return ctx, func() { stop(); cancel(nil) }
}

// admit runs the request through admission control (tenant identity from
// the X-Tenant header). On admission the returned release func MUST be
// called when the request's work — including any response streaming —
// finishes. On refusal the 429 (or 499, if the request's context ended
// while it was queued) has already been written. Only the compute-
// bearing POSTs pass through here: GETs are cheap, and /watch streams
// are long-lived subscriptions that would pin inflight slots forever.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, e *meshEntry) (release func(), ok bool) {
	if s.admission == nil {
		return func() {}, true
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	release, err := s.admission.Admit(ctx, r.Header.Get("X-Tenant"))
	spanAdd(w, spanAdmission, time.Since(start))
	if err == nil {
		return release, true
	}
	var rej *admission.Rejection
	if errors.As(err, &rej) {
		writeError(w, e, WireError{
			Code:              meshroute.CodeResourceExhausted,
			Message:           err.Error(),
			RetryAfterSeconds: rej.RetryAfter.Seconds(),
		})
	} else {
		// The request's context ended while it was queued: that is a
		// cancellation, not exhaustion.
		writeError(w, e, wireError(fmt.Errorf("meshroute: %w: %w", meshroute.ErrCanceled, err)))
	}
	return nil, false
}

// lookup resolves a {name} path value to its entry.
func (s *Server) lookup(name string) (*meshEntry, bool) {
	return s.reg.lookup(name)
}

// leaderOnly gates a mutation endpoint: on a follower it refuses with
// NOT_LEADER carrying the leader's address, before admission control —
// a misdirected commit should not consume rate-limit budget.
func (s *Server) leaderOnly() (WireError, bool) {
	if s.cfg.FollowerOf == "" {
		return WireError{}, true
	}
	return WireError{
		Code:    CodeNotLeader,
		Message: "read-only follower: send mutations to the leader",
		Leader:  s.cfg.FollowerOf,
	}, false
}

// writeJSON writes a 2xx JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	start := time.Now()
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	spanAdd(w, spanEncode, time.Since(start))
}

// writeError writes the JSON error body for we, counting it against the
// mesh's tally when one is in scope (e may be nil for registry errors).
// A retry-after hint additionally becomes a Retry-After header (integer
// seconds, rounded up — the header cannot say "0").
func writeError(w http.ResponseWriter, e *meshEntry, we WireError) {
	if e != nil {
		e.metrics.countError(we.Code)
	}
	noteCode(w, we.Code)
	if we.RetryAfterSeconds > 0 {
		secs := int(math.Ceil(we.RetryAfterSeconds))
		w.Header().Set("Retry-After", strconv.Itoa(max(1, secs)))
	}
	writeJSON(w, statusForCode(we.Code), errorBody{Error: we})
}

// badRequest shapes a structural-validation failure.
func badRequest(format string, args ...any) WireError {
	return WireError{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// decodeBody strictly decodes the JSON request body into v: unknown
// fields, trailing garbage, and oversized bodies are BAD_REQUEST.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (WireError, bool) {
	start := time.Now()
	defer func() { spanAdd(w, spanDecode, time.Since(start)) }()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err), false
	}
	if dec.More() {
		return badRequest("invalid request body: trailing data"), false
	}
	return WireError{}, true
}

// HealthMesh is one mesh's block of the /healthz body.
type HealthMesh struct {
	// Status is "ok", or "degraded" when the mesh's journal has latched
	// an error (reads still serve; commits are refused with STORAGE).
	Status string `json:"status"`
	// JournalError is the latched journal error of a degraded mesh.
	JournalError string `json:"journal_error,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	// Status is "ok", "degraded" (at least one mesh's journal is sick),
	// or "draining". Plain /healthz answers 200 for ok AND degraded — a
	// degraded server still serves reads, and restarting it won't grow
	// the disk back. `?strict=1` turns degraded into a 503 for
	// orchestrators that want to rotate sick replicas out.
	Status string `json:"status"`
	// Meshes carries the per-mesh health; only present when a data dir
	// makes per-mesh durability a thing that can fail.
	Meshes map[string]HealthMesh `json:"meshes,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "draining"})
		return
	}
	h := s.Health()
	status := http.StatusOK
	if h.Status != "ok" && r.URL.Query().Get("strict") == "1" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Health reports per-mesh journal health: a mesh whose journal latched
// an error is "degraded" (serving reads, refusing commits), and one
// degraded mesh degrades the whole server's status.
func (s *Server) Health() Health {
	entries := s.reg.entries()
	h := Health{Status: "ok"}
	for _, e := range entries {
		if e.journal == nil {
			continue
		}
		if h.Meshes == nil {
			h.Meshes = make(map[string]HealthMesh, len(entries))
		}
		m := HealthMesh{Status: "ok"}
		if err := e.journal.Err(); err != nil {
			m = HealthMesh{Status: "degraded", JournalError: err.Error()}
			h.Status = "degraded"
		}
		h.Meshes[e.name] = m
	}
	return h
}

// SetReplication installs the follower's replication-telemetry source:
// /metrics gains the meshd_replication_* families built from stats()
// (one TailStats per replicated mesh). cmd/meshd calls it once, after
// constructing the cluster.Follower whose Stats method it hands in.
func (s *Server) SetReplication(stats func() map[string]cluster.TailStats) {
	s.replMu.Lock()
	s.replStats = stats
	s.replMu.Unlock()
}

func (s *Server) handleCreateMesh(w http.ResponseWriter, r *http.Request) {
	if we, ok := s.leaderOnly(); !ok {
		writeError(w, nil, we)
		return
	}
	var req CreateMeshRequest
	if we, ok := decodeBody(w, r, &req); !ok {
		writeError(w, nil, we)
		return
	}
	if !meshNameRE.MatchString(req.Name) {
		writeError(w, nil, badRequest("invalid mesh name %q (want %s)", req.Name, meshNameRE))
		return
	}
	// Validate the geometry here, at the boundary: mesh.New panics on
	// degenerate dimensions, which must never be reachable from the wire.
	if req.Width < 1 || req.Height < 1 {
		writeError(w, nil, WireError{
			Code:    meshroute.CodeOutsideMesh,
			Message: fmt.Sprintf("mesh dimensions %dx%d: both must be >= 1", req.Width, req.Height),
		})
		return
	}
	// Divide instead of multiplying: width*height overflows int for
	// absurd dimensions, which would slip past the cap and panic later.
	if req.Width > s.cfg.MaxNodes/req.Height {
		writeError(w, nil, WireError{
			Code:    meshroute.CodeOutsideMesh,
			Message: fmt.Sprintf("mesh dimensions %dx%d exceed the per-mesh cap of %d nodes", req.Width, req.Height, s.cfg.MaxNodes),
		})
		return
	}
	// Reserve the name before paying for the build (the analysis
	// precompute is O(nodes) work): a reservation makes concurrent
	// creates of one name lose with MESH_EXISTS at this boundary —
	// before either touches the disk — and holds the registry slot until
	// commitReserved or releaseReserved resolves it.
	if we, ok := s.reg.reserve(req.Name); !ok {
		writeError(w, nil, we)
		return
	}
	e, jopts := s.newMeshEntry(req.Name)
	if s.cfg.DataDir != "" {
		j, err := journal.Create(filepath.Join(s.cfg.DataDir, req.Name), req.Width, req.Height, jopts)
		if err != nil {
			s.reg.release(req.Name)
			// With the name reserved, an existing directory here is
			// on-disk state the registry does not know about (e.g. a
			// data dir that was never recovered) — operational, 500.
			writeError(w, nil, WireError{
				Code:    CodeStorage,
				Message: fmt.Sprintf("journal for mesh %q: %v", req.Name, err),
			})
			return
		}
		e.journal = j
	}
	e.net = meshroute.NewWithEngineOptions(req.Width, req.Height, s.engineOptions(e))
	s.reg.commit(e)
	writeJSON(w, http.StatusCreated, s.meshInfo(e, false))
}

// meshInfo snapshots one entry's stats.
func (s *Server) meshInfo(e *meshEntry, withConnectivity bool) MeshInfo {
	st := e.net.Stats()
	info := MeshInfo{
		Name:            e.name,
		Width:           st.Width,
		Height:          st.Height,
		Faults:          st.PublishedFaults,
		PendingEdits:    st.PendingEdits,
		SnapshotVersion: st.SnapshotVersion,
	}
	if withConnectivity {
		connected := e.net.Connected()
		info.Connected = &connected
	}
	return info
}

func (s *Server) handleListMeshes(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.entries()
	list := MeshList{Meshes: make([]MeshInfo, 0, len(entries))}
	for _, e := range entries {
		list.Meshes = append(list.Meshes, s.meshInfo(e, false))
	}
	sortMeshInfos(list.Meshes)
	writeJSON(w, http.StatusOK, list)
}

// sortMeshInfos orders a listing by name for stable output.
func sortMeshInfos(infos []MeshInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
}

// notFound shapes the missing-mesh error.
func notFound(name string) WireError {
	return WireError{Code: CodeMeshNotFound, Message: fmt.Sprintf("mesh %q not found", name)}
}

func (s *Server) handleGetMesh(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, nil, notFound(name))
		return
	}
	writeJSON(w, http.StatusOK, s.meshInfo(e, true))
}

func (s *Server) handleDeleteMesh(w http.ResponseWriter, r *http.Request) {
	if we, ok := s.leaderOnly(); !ok {
		writeError(w, nil, we)
		return
	}
	name := r.PathValue("name")
	_, ok := s.reg.remove(name, func(e *meshEntry) {
		// The journal is withdrawn with the mesh — an unregistered name
		// must not resurrect on the next boot — and it is withdrawn while
		// the registry lock still holds the name, so a concurrent
		// re-create of the same name cannot have its fresh journal
		// directory swept away. Deletes are rare; the fsync-on-close
		// under the lock is fine.
		if e.journal != nil {
			e.journal.Close()
			_ = journal.Remove(filepath.Join(s.cfg.DataDir, name))
		}
		// Tell the mesh's long-lived watch streams the mesh is gone —
		// their heartbeats would otherwise report a dead Network forever.
		close(e.deleted)
	})
	if !ok {
		writeError(w, nil, notFound(name))
		return
	}
	// In-flight requests that resolved the entry before the delete finish
	// normally on their pinned snapshots; the registry just stops handing
	// the mesh out.
	w.WriteHeader(http.StatusNoContent)
}

// routeOptions resolves the shared wire knobs of route and batch
// requests into facade options.
func routeOptions(algorithm, policy string, maxHops int, noOracle bool, workers int) ([]meshroute.RouteOption, WireError, bool) {
	algo, ok := parseAlgorithm(algorithm)
	if !ok {
		return nil, badRequest("unknown algorithm %q (want ecube, rb1, rb2, or rb3)", algorithm), false
	}
	pol, ok := parsePolicy(policy)
	if !ok {
		return nil, badRequest("unknown policy %q (want diagonal, xfirst, or yfirst)", policy), false
	}
	if maxHops < 0 {
		return nil, badRequest("max_hops %d is negative", maxHops), false
	}
	opts := []meshroute.RouteOption{
		meshroute.WithAlgorithm(algo),
		meshroute.WithPolicy(pol),
	}
	if maxHops > 0 {
		opts = append(opts, meshroute.WithMaxHops(maxHops))
	}
	if noOracle {
		opts = append(opts, meshroute.WithoutOracle())
	}
	if workers > 0 {
		opts = append(opts, meshroute.WithWorkers(workers))
	}
	return opts, WireError{}, true
}

// validateEndpoint bounds-checks one wire coordinate against the mesh
// before the request reaches the routing layers.
func validateEndpoint(e *meshEntry, what string, c Coord) (WireError, bool) {
	if c.X < 0 || c.X >= e.net.Width() || c.Y < 0 || c.Y >= e.net.Height() {
		return WireError{
			Code: meshroute.CodeOutsideMesh,
			Message: fmt.Sprintf("%s (%d,%d) outside the %dx%d mesh",
				what, c.X, c.Y, e.net.Width(), e.net.Height()),
		}, false
	}
	return WireError{}, true
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, nil, notFound(name))
		return
	}
	release, ok := s.admit(w, r, e)
	if !ok {
		return
	}
	defer release()
	var req RouteWireRequest
	if we, ok := decodeBody(w, r, &req); !ok {
		writeError(w, e, we)
		return
	}
	if we, ok := validateEndpoint(e, "src", req.Src); !ok {
		writeError(w, e, we)
		return
	}
	if we, ok := validateEndpoint(e, "dst", req.Dst); !ok {
		writeError(w, e, we)
		return
	}
	opts, we, ok := routeOptions(req.Algorithm, req.Policy, req.MaxHops, req.NoOracle, 0)
	if !ok {
		writeError(w, e, we)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, err := e.net.Route(ctx, meshroute.RouteRequest{
		Src: req.Src.coord(), Dst: req.Dst.coord(),
	}, opts...)
	if err != nil {
		writeError(w, e, wireError(err))
		return
	}
	spanAdd(w, spanWalk, resp.WalkDuration)
	spanAdd(w, spanOracle, resp.OracleDuration)
	writeJSON(w, http.StatusOK, toWireResponse(resp))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, nil, notFound(name))
		return
	}
	// The inflight slot is held for the whole stream, not just the
	// decode: a batch's cost is its routing work.
	release, ok := s.admit(w, r, e)
	if !ok {
		return
	}
	defer release()
	var req BatchWireRequest
	if we, ok := decodeBody(w, r, &req); !ok {
		writeError(w, e, we)
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, e, badRequest("batch has no pairs"))
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatchPairs {
		writeError(w, e, badRequest("batch has %d pairs; the cap is %d", len(req.Pairs), s.cfg.MaxBatchPairs))
		return
	}
	if req.Workers < 0 {
		writeError(w, e, badRequest("workers %d is negative", req.Workers))
		return
	}
	opts, we, ok := routeOptions(req.Algorithm, req.Policy, req.MaxHops, req.NoOracle, req.Workers)
	if !ok {
		writeError(w, e, we)
		return
	}
	pairs := make([]meshroute.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = meshroute.Pair{S: p.Src.coord(), D: p.Dst.coord()}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	batch, err := e.net.RouteBatch(ctx, meshroute.BatchRequest{Pairs: pairs}, opts...)
	if err != nil {
		writeError(w, e, wireError(err))
		return
	}
	defer batch.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for item, ok := batch.Next(); ok; item, ok = batch.Next() {
		idx := item.Index
		line := BatchWireItem{
			Index: &idx,
			Src:   ptr(toWire(item.Pair.S)),
			Dst:   ptr(toWire(item.Pair.D)),
		}
		if item.Err != nil {
			we := wireError(item.Err)
			line.Error = &we
			e.metrics.countError(we.Code)
		} else {
			resp := toWireResponse(item.Response)
			line.Response = &resp
			// Batch spans accumulate across items: the breakdown reports
			// total walk/oracle time of the whole stream.
			spanAdd(w, spanWalk, item.Response.WalkDuration)
			spanAdd(w, spanOracle, item.Response.OracleDuration)
		}
		encStart := time.Now()
		err := enc.Encode(line)
		spanAdd(w, spanEncode, time.Since(encStart))
		if err != nil {
			// The client is gone; stop the workers and bail.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := batch.Err(); err != nil {
		// The stream was cut short (client disconnect or drain): terminate
		// it with an explicit stream_error line so consumers can tell a
		// truncated stream from a complete one.
		we := wireError(err)
		e.metrics.countError(we.Code)
		_ = enc.Encode(BatchWireItem{StreamError: &we})
	}
}

func ptr[T any](v T) *T { return &v }

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, nil, notFound(name))
		return
	}
	if we, ok := s.leaderOnly(); !ok {
		writeError(w, e, we)
		return
	}
	release, ok := s.admit(w, r, e)
	if !ok {
		return
	}
	defer release()
	var req FaultsWireRequest
	if we, ok := decodeBody(w, r, &req); !ok {
		writeError(w, e, we)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, e, badRequest("transaction has no ops"))
		return
	}
	// A journaled mesh refuses new commits once its journal is sick:
	// accepting a transaction whose record cannot be written would ACK
	// state the next boot silently loses.
	if e.journal != nil {
		if jerr := e.journal.Err(); jerr != nil {
			writeError(w, e, WireError{
				Code:    CodeStorage,
				Message: fmt.Sprintf("journal unavailable, transaction refused: %v", jerr),
			})
			return
		}
	}
	// One Apply per request: every op stages on the same transaction, so
	// the whole POST publishes exactly one snapshot or rolls back whole.
	var failedOp int
	applyStart := time.Now()
	version, err := e.net.ApplyVersion(func(tx *meshroute.Tx) error {
		for i, op := range req.Ops {
			if err := applyOp(tx, op); err != nil {
				failedOp = i
				return fmt.Errorf("op %d (%s): %w", i, op.Op, err)
			}
		}
		return nil
	})
	applyDur := time.Since(applyStart)
	if e.appendTimes != nil {
		// The journal appended our version inside the apply (the publish
		// hook runs in the writer critical section); split its share out
		// of the apply span so the breakdown attributes disk time to disk.
		if jw, jf, ok := e.appendTimes.lookup(version); ok {
			spanAdd(w, spanJournalAppend, jw)
			spanAdd(w, spanJournalFsync, jf)
			applyDur -= jw + jf
		}
	}
	spanAdd(w, spanApply, max(applyDur, 0))
	if err != nil {
		var we WireError
		var bad opError
		if errors.As(err, &bad) {
			we = badRequest("%v", err)
		} else {
			we = wireError(err)
		}
		we.OpIndex = &failedOp
		writeError(w, e, we)
		return
	}
	// The commit published; if journaling THIS version failed (disk
	// full, torn directory), do NOT return 200: the in-memory state is
	// ahead of the durable history and a crash would silently rewind it.
	// Appends are version-ordered and failures sticky, so the journal
	// having reached our version means our record is in the WAL — a
	// concurrent commit's failure cannot misattribute to us, and a failed
	// compaction AFTER a durable append (the WAL keeps the record) does
	// not fail the commit that triggered it, only the ones after.
	if e.journal != nil && e.journal.Version() < version {
		cause := e.journal.Err()
		if cause == nil {
			cause = journal.ErrClosed // delete race: the journal went away underneath
		}
		writeError(w, e, WireError{
			Code:    CodeStorage,
			Message: fmt.Sprintf("transaction applied in memory but not journaled: %v", cause),
		})
		return
	}
	st := e.net.Stats()
	writeJSON(w, http.StatusOK, FaultsWireResponse{
		OpsApplied:      len(req.Ops),
		Faults:          st.PublishedFaults,
		SnapshotVersion: version,
	})
}

// opError marks structurally invalid fault ops; wireError cannot
// classify it, so handleFaults maps it to BAD_REQUEST explicitly.
type opError struct{ msg string }

func (e opError) Error() string { return e.msg }

// applyOp stages one wire op on the transaction.
func applyOp(tx *meshroute.Tx, op FaultOp) error {
	switch op.Op {
	case "add":
		if op.At == nil {
			return opError{`"add" needs "at"`}
		}
		return tx.AddFault(op.At.coord())
	case "repair":
		if op.At == nil {
			return opError{`"repair" needs "at"`}
		}
		return tx.RepairFault(op.At.coord())
	case "link":
		if op.A == nil || op.B == nil {
			return opError{`"link" needs "a" and "b"`}
		}
		return tx.AddLinkFault(op.A.coord(), op.B.coord())
	case "inject_random":
		return tx.InjectRandom(op.Count, op.Seed)
	}
	return opError{fmt.Sprintf("unknown op %q (want add, repair, link, or inject_random)", op.Op)}
}

func (s *Server) handleListFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, nil, notFound(name))
		return
	}
	snap := e.net.Engine().Snapshot()
	coords := snap.Faults().Coords()
	list := FaultList{
		Count:           len(coords),
		Faults:          toWirePath(coords),
		SnapshotVersion: snap.Version(),
	}
	writeJSON(w, http.StatusOK, list)
}
