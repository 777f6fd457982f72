package server

import (
	"errors"
	"net/http"
	"strings"

	meshroute "repro"
)

// Server-side wire codes for failures that have no library-level sentinel:
// they complete the taxonomy of meshroute.Code* on the HTTP surface.
const (
	// CodeBadRequest reports a request body that could not be decoded or
	// failed structural validation (unknown op, missing field, bad name).
	CodeBadRequest = "BAD_REQUEST"
	// CodeMeshNotFound reports a {name} that is not in the registry.
	CodeMeshNotFound = "MESH_NOT_FOUND"
	// CodeMeshExists reports a create for a name already registered.
	CodeMeshExists = "MESH_EXISTS"
	// CodeRegistryFull reports a create beyond Config.MaxMeshes.
	CodeRegistryFull = "REGISTRY_FULL"
	// CodeInternal reports an error outside the documented taxonomy. A
	// served request should never produce it; the CI smoke fails if one
	// leaks.
	CodeInternal = "INTERNAL"
	// CodeStorage reports a journal/data-dir failure on a persistent
	// server (mesh create could not initialize its journal). Operational,
	// not a client error: 500.
	CodeStorage = "STORAGE"
	// CodeNotLeader reports a mutation sent to a read-only follower in a
	// replicated cluster. The error body's Leader field carries the
	// leader's base URL; clients resend the request there (see
	// cmd/meshload). 421: the request was directed at a server unable to
	// produce an authoritative response.
	CodeNotLeader = "NOT_LEADER"
)

// StatusCanceled is the non-standard 499 "client closed request" status
// (nginx convention) used for requests cut short by disconnect or drain.
const StatusCanceled = 499

// statusForCode maps a wire code to its HTTP status. Every code in the
// documented taxonomy has exactly one status; unknown codes are 500.
func statusForCode(code string) int {
	switch code {
	case CodeBadRequest, meshroute.CodeOutsideMesh,
		meshroute.CodeInvalidFaultCount, meshroute.CodeNotAdjacent:
		return http.StatusBadRequest // 400
	case CodeMeshNotFound:
		return http.StatusNotFound // 404
	case CodeMeshExists, meshroute.CodeFaultyEndpoint,
		meshroute.CodeUnreachable:
		return http.StatusConflict // 409
	case meshroute.CodeAborted:
		return http.StatusUnprocessableEntity // 422
	case CodeRegistryFull, meshroute.CodeResourceExhausted:
		return http.StatusTooManyRequests // 429
	case meshroute.CodeWatchClosed:
		return http.StatusGone // 410: the stream is over and will not resume
	case CodeNotLeader:
		return http.StatusMisdirectedRequest // 421: commit on a read-only follower
	case meshroute.CodeCanceled:
		return StatusCanceled // 499
	case CodeInternal, CodeStorage:
		return http.StatusInternalServerError // 500
	}
	return http.StatusInternalServerError // 500
}

// Coord is a mesh coordinate on the wire.
type Coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

func toWire(c meshroute.Coord) Coord   { return Coord{X: c.X, Y: c.Y} }
func (c Coord) coord() meshroute.Coord { return meshroute.C(c.X, c.Y) }
func toWirePath(p []meshroute.Coord) []Coord {
	out := make([]Coord, len(p))
	for i, c := range p {
		out[i] = toWire(c)
	}
	return out
}

// WireError is the structured JSON error body: every non-2xx response is
// {"error": WireError}, and the code alone decides the HTTP status (see
// statusForCode). Abort is present exactly when Code is ABORTED.
type WireError struct {
	// Code is the stable wire code (meshroute.Code* or the server codes
	// above).
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// OpIndex identifies the failing operation of a rolled-back fault
	// transaction (present only on /faults errors).
	OpIndex *int `json:"op_index,omitempty"`
	// Abort carries the walk diagnostics of an ABORTED routing.
	Abort *WireAbort `json:"abort,omitempty"`
	// RetryAfterSeconds is the backoff hint of a RESOURCE_EXHAUSTED
	// rejection (it also rides the Retry-After header, rounded up to
	// whole seconds — this field keeps the sub-second precision).
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// Leader is the leader's base URL on a NOT_LEADER refusal: the
	// address the mutation should be resent to.
	Leader string `json:"leader,omitempty"`
}

// WireAbort carries the diagnostics of a walk that stopped undelivered,
// round-tripping meshroute.ErrAborted over the wire.
type WireAbort struct {
	Algorithm  string  `json:"algorithm"`
	Reason     string  `json:"reason"`
	Hops       int     `json:"hops"`
	Path       []Coord `json:"path"`
	WallFlips  int     `json:"wall_flips"`
	Downgraded bool    `json:"downgraded"`
}

// errorBody is the envelope of every non-2xx JSON response.
type errorBody struct {
	Error WireError `json:"error"`
}

// wireError classifies err into its wire form using the library's
// ErrorCode mapping; errors outside the taxonomy become INTERNAL.
func wireError(err error) WireError {
	code := meshroute.ErrorCode(err)
	if code == "" {
		code = CodeInternal
	}
	we := WireError{Code: code, Message: err.Error()}
	var abort *meshroute.ErrAborted
	if code == meshroute.CodeAborted && errors.As(err, &abort) {
		we.Abort = &WireAbort{
			Algorithm:  algoName(abort.Algorithm),
			Reason:     abort.Reason,
			Hops:       abort.Hops,
			Path:       toWirePath(abort.Path),
			WallFlips:  abort.WallFlips,
			Downgraded: abort.Downgraded,
		}
	}
	return we
}

// RouteWireRequest is the body of POST /v1/meshes/{name}/route.
type RouteWireRequest struct {
	Src Coord `json:"src"`
	Dst Coord `json:"dst"`
	// Algorithm selects the routing algorithm: "ecube", "rb1", "rb2"
	// (default), or "rb3".
	Algorithm string `json:"algorithm,omitempty"`
	// Policy overrides the adaptive selection policy: "diagonal"
	// (default), "xfirst", or "yfirst".
	Policy string `json:"policy,omitempty"`
	// MaxHops bounds the walk's hop budget (0 keeps the default).
	MaxHops int `json:"max_hops,omitempty"`
	// NoOracle skips the BFS oracle report; unreachable destinations then
	// surface as ABORTED instead of UNREACHABLE.
	NoOracle bool `json:"no_oracle,omitempty"`
}

// RouteWireResponse is the 200 body of a delivered routing.
type RouteWireResponse struct {
	Path            []Coord     `json:"path"`
	Hops            int         `json:"hops"`
	Phases          int         `json:"phases"`
	DetourHops      int         `json:"detour_hops"`
	WallFlips       int         `json:"wall_flips,omitempty"`
	Downgraded      bool        `json:"downgraded,omitempty"`
	SnapshotVersion uint64      `json:"snapshot_version"`
	Oracle          *WireOracle `json:"oracle,omitempty"`
}

// WireOracle is the BFS comparison of a routed walk (absent with
// no_oracle).
type WireOracle struct {
	Optimal           int  `json:"optimal"`
	Shortest          bool `json:"shortest"`
	ManhattanFeasible bool `json:"manhattan_feasible"`
}

func toWireResponse(resp meshroute.RouteResponse) RouteWireResponse {
	out := RouteWireResponse{
		Path:            toWirePath(resp.Path),
		Hops:            resp.Hops,
		Phases:          resp.Phases,
		DetourHops:      resp.DetourHops,
		WallFlips:       resp.WallFlips,
		Downgraded:      resp.Downgraded,
		SnapshotVersion: resp.SnapshotVersion,
	}
	if resp.Oracle != nil {
		out.Oracle = &WireOracle{
			Optimal:           resp.Oracle.Optimal,
			Shortest:          resp.Oracle.Shortest,
			ManhattanFeasible: resp.Oracle.ManhattanFeasible,
		}
	}
	return out
}

// BatchWireRequest is the body of POST /v1/meshes/{name}/route/batch.
type BatchWireRequest struct {
	Pairs []WirePair `json:"pairs"`
	// Workers bounds the routing worker pool (0 = GOMAXPROCS; larger
	// values are capped at GOMAXPROCS).
	Workers   int    `json:"workers,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Policy    string `json:"policy,omitempty"`
	MaxHops   int    `json:"max_hops,omitempty"`
	NoOracle  bool   `json:"no_oracle,omitempty"`
}

// WirePair is one batch source/destination pair.
type WirePair struct {
	Src Coord `json:"src"`
	Dst Coord `json:"dst"`
}

// BatchWireItem is one NDJSON line of the streaming batch response.
// Items arrive in completion order; Index is the pair's position in the
// request. Exactly one of Response and Error is set. A line carrying
// StreamError instead (and no Index) terminates a stream that was cut
// short (client disconnect or server drain); a fully served stream just
// ends.
type BatchWireItem struct {
	Index       *int               `json:"index,omitempty"`
	Src         *Coord             `json:"src,omitempty"`
	Dst         *Coord             `json:"dst,omitempty"`
	Response    *RouteWireResponse `json:"response,omitempty"`
	Error       *WireError         `json:"error,omitempty"`
	StreamError *WireError         `json:"stream_error,omitempty"`
}

// CreateMeshRequest is the body of POST /v1/meshes.
type CreateMeshRequest struct {
	// Name registers the mesh: 1-64 chars of [a-zA-Z0-9_.-], starting
	// with an alphanumeric.
	Name string `json:"name"`
	// Width, Height are the mesh extents; both must be >= 1 and the node
	// count must not exceed the server's per-mesh cap.
	Width  int `json:"width"`
	Height int `json:"height"`
}

// MeshInfo describes one registered mesh.
type MeshInfo struct {
	Name            string `json:"name"`
	Width           int    `json:"width"`
	Height          int    `json:"height"`
	Faults          int    `json:"faults"`
	PendingEdits    int    `json:"pending_edits"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	// Connected reports whether the surviving nodes form one component;
	// computed only for single-mesh GETs (nil in listings: it costs a
	// full BFS per mesh).
	Connected *bool `json:"connected,omitempty"`
}

// MeshList is the body of GET /v1/meshes.
type MeshList struct {
	Meshes []MeshInfo `json:"meshes"`
}

// FaultOp is one operation of a fault transaction. Op selects the edit;
// the other fields are per-op arguments.
type FaultOp struct {
	// Op is "add" (At), "repair" (At), "link" (A, B), or "inject_random"
	// (Count, Seed).
	Op string `json:"op"`
	// At is the node of an add/repair.
	At *Coord `json:"at,omitempty"`
	// A, B are the link endpoints of a link fault.
	A *Coord `json:"a,omitempty"`
	B *Coord `json:"b,omitempty"`
	// Count, Seed parameterize inject_random, which REPLACES the whole
	// fault configuration with Count uniform random faults.
	Count int   `json:"count,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
}

// FaultsWireRequest is the body of POST /v1/meshes/{name}/faults: one
// atomic transaction. Either every op applies and exactly one snapshot
// publishes, or the whole transaction rolls back and nothing changes.
type FaultsWireRequest struct {
	Ops []FaultOp `json:"ops"`
}

// FaultsWireResponse reports a committed fault transaction.
type FaultsWireResponse struct {
	OpsApplied      int    `json:"ops_applied"`
	Faults          int    `json:"faults"`
	SnapshotVersion uint64 `json:"snapshot_version"`
}

// FaultList is the body of GET /v1/meshes/{name}/faults. The snapshot
// version identifies the published configuration the listing captures —
// watch consumers re-syncing after a gap line resume `?from=` here.
type FaultList struct {
	Count           int     `json:"count"`
	Faults          []Coord `json:"faults"`
	SnapshotVersion uint64  `json:"snapshot_version"`
}

// WatchWireEvent is one committed fault transaction on the watch stream:
// the snapshot version it published and the add/repair delta against the
// previous snapshot (row-major order).
type WatchWireEvent struct {
	Version uint64  `json:"version"`
	Adds    []Coord `json:"adds,omitempty"`
	Repairs []Coord `json:"repairs,omitempty"`
}

// WatchWireGap is an inclusive version range the stream cannot deliver:
// the resume point predates the journal's retention, or the consumer
// fell behind the bounded buffer. Re-sync full state via GET /faults.
type WatchWireGap struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// WatchWireHeartbeat is the idle keep-alive line, carrying the current
// published snapshot version so consumers can detect missed events
// without a round-trip.
type WatchWireHeartbeat struct {
	Version uint64 `json:"version"`
}

// WatchWireItem is one NDJSON line of GET /v1/meshes/{name}/watch.
// Exactly one field is set. A StreamError line terminates a stream cut
// short (client disconnect or server drain); a live stream otherwise
// never ends on its own.
type WatchWireItem struct {
	Event       *WatchWireEvent     `json:"event,omitempty"`
	Gap         *WatchWireGap       `json:"gap,omitempty"`
	Heartbeat   *WatchWireHeartbeat `json:"heartbeat,omitempty"`
	StreamError *WireError          `json:"stream_error,omitempty"`
}

// algoName renders an Algorithm in its wire spelling.
func algoName(a meshroute.Algorithm) string {
	switch a {
	case meshroute.Ecube:
		return "ecube"
	case meshroute.RB1:
		return "rb1"
	case meshroute.RB2:
		return "rb2"
	case meshroute.RB3:
		return "rb3"
	}
	return strings.ToLower(a.String())
}

// parseAlgorithm maps a wire algorithm name ("" means the RB2 default).
func parseAlgorithm(s string) (meshroute.Algorithm, bool) {
	switch s {
	case "", "rb2":
		return meshroute.RB2, true
	case "ecube":
		return meshroute.Ecube, true
	case "rb1":
		return meshroute.RB1, true
	case "rb3":
		return meshroute.RB3, true
	}
	return meshroute.RB2, false
}

// parsePolicy maps a wire policy name ("" means the diagonal default).
func parsePolicy(s string) (meshroute.Policy, bool) {
	switch s {
	case "", "diagonal":
		return meshroute.PolicyDiagonal, true
	case "xfirst":
		return meshroute.PolicyXFirst, true
	case "yfirst":
		return meshroute.PolicyYFirst, true
	}
	return meshroute.PolicyDiagonal, false
}
