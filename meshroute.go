// Package meshroute is the public facade of this repository: a library for
// fault-tolerant shortest-path routing in 2-D meshes implementing
//
//	Zhen Jiang and Jie Wu, "On Achieving the Shortest-Path Routing in 2-D
//	Meshes", IPDPS 2007.
//
// It wraps the internal substrate — MCC labeling, fault-region geometry,
// the B1/B2/B3 information models, and the E-cube/RB1/RB2/RB3 routing
// algorithms — behind the stable API v1 request/response surface:
//
//	net := meshroute.NewSquare(100)
//	err := net.Apply(func(tx *meshroute.Tx) error {
//	    return tx.InjectRandom(1500, 42) // or tx.AddFault / tx.AddLinkFault
//	})
//	resp, err := net.Route(ctx, meshroute.RouteRequest{
//	    Src: meshroute.C(3, 5), Dst: meshroute.C(90, 80),
//	})
//	fmt.Println(resp.Hops, resp.Oracle.Shortest)
//
// # API v1
//
// Requests take a context and return typed errors:
//
//   - Route(ctx, RouteRequest, ...RouteOption) routes one pair; RouteBatch
//     (ctx, BatchRequest, ...RouteOption) streams a batch through a worker
//     pool via the Batch iterator without buffering all results.
//   - Functional options tune a call: WithAlgorithm (default RB2),
//     WithPolicy, WithWorkers, WithMaxHops, and WithoutOracle to skip the
//     per-pair BFS oracle on hot paths.
//   - Failures wrap the typed taxonomy of errors.go (ErrOutsideMesh,
//     ErrFaultyEndpoint, ErrUnreachable, *ErrAborted, ErrCanceled,
//     ErrInvalidFaultCount, ErrNotAdjacent) — dispatch with errors.Is /
//     errors.As. Each taxonomy error also has a stable wire code
//     (ErrorCode, the Code* constants) that network layers exchange
//     instead of Go error values.
//   - Fault changes go through the atomic transaction API Apply: all edits
//     of one transaction publish as exactly one engine snapshot, and a
//     failed transaction publishes nothing.
//   - Watch(ctx) subscribes to committed fault transactions: an ordered,
//     bounded-buffer stream of FaultEvents (version + add/repair delta)
//     with an explicit gap marker for slow consumers. Restore rebuilds a
//     network at a recovered fault set and snapshot version (crash
//     recovery, see internal/journal).
//
// The single-edit mutators (AddFault, AddLinkFault, RepairFault,
// InjectRandom) are one-edit Apply transactions.
//
// # Serving
//
// The library is served over HTTP by cmd/meshd (wire protocol in
// internal/server): a multi-mesh registry where each mesh is one Network,
// route and streaming-batch endpoints, and fault transactions mapping
// onto Apply. NewWithEngineOptions plumbs serving concerns — a metrics
// hook, a commit observer, the information models to build — into the
// engine underneath a Network.
//
// # Concurrency
//
// Routing runs on the concurrent engine of internal/engine: Apply builds
// the next fault configuration off to the side and publishes an immutable
// precomputed snapshot behind an atomic pointer. Every Network method is
// safe to call from any goroutine: writers (Apply and the single-edit
// mutators) are serialized by a short internal mutex, while the routing
// hot path and all reads (Faulty, FaultCount, Connected, Stats, Analysis)
// run lock-free against the published snapshot — one Route pins one
// snapshot for its whole call (walk and oracle included), so concurrent
// fault publications never produce a mixed-configuration result, and no
// reader ever observes a partially applied transaction. RouteBatch
// additionally fans one batch of pairs out across a worker pool, all
// served from a single snapshot.
package meshroute

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/mcc"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
)

// Coord re-exports the mesh coordinate type.
type Coord = mesh.Coord

// C constructs a coordinate.
func C(x, y int) Coord { return mesh.C(x, y) }

// Algorithm selects a routing algorithm.
type Algorithm = routing.Algo

// The supported algorithms.
const (
	// Ecube is the fault-tolerant dimension-order baseline.
	Ecube = routing.Ecube
	// RB1 routes with B1 boundary information plus detours (Algorithm 3).
	RB1 = routing.RB1
	// RB2 routes multi-phase on the full information model B2 (Algorithm 5);
	// it achieves the shortest path (Theorem 1) and is the default.
	RB2 = routing.RB2
	// RB3 routes on the practical boundary-only model B3 (Algorithm 7).
	RB3 = routing.RB3
)

// Policy re-exports the adaptive selection policy of Algorithm 2 step 3.
type Policy = routing.Policy

// The selection policies WithPolicy accepts.
const (
	// PolicyDiagonal balances the remaining offsets (the default).
	PolicyDiagonal = routing.PolicyDiagonal
	// PolicyXFirst always prefers +X when admissible.
	PolicyXFirst = routing.PolicyXFirst
	// PolicyYFirst always prefers +Y when admissible.
	PolicyYFirst = routing.PolicyYFirst
)

// Network is a 2-D mesh with a fault configuration and a concurrent
// routing engine serving precomputed analysis snapshots.
type Network struct {
	m      mesh.Mesh
	router *engine.Router

	mu      sync.Mutex   // serializes Apply transactions
	pending atomic.Int64 // edits staged by an in-flight Apply

	watchMu sync.Mutex // guards the watcher registry
	// watchers is the live watcher registry; fanout iterates it inside
	// the engine's writer critical section.
	//meshlint:guardedby watchMu
	watchers map[uint64]*Watch
	// watchSeq issues watcher ids.
	//meshlint:guardedby watchMu
	watchSeq     uint64
	watchDropped atomic.Uint64 // events dropped on slow watchers (Stats)
}

// New returns a fault-free W x H mesh network.
func New(w, h int) *Network { return NewWithEngineOptions(w, h, engine.Options{}) }

// NewWithEngineOptions returns a fault-free W x H network whose engine is
// configured with opts: serving layers use it to plumb a metrics hook
// (engine.Options.Metrics), a commit observer (OnPublish — journaling
// layers use it; the network chains its own Watch fan-out after it) or
// narrow the precomputed information models (Models).
func NewWithEngineOptions(w, h int, opts engine.Options) *Network {
	return newNetwork(mesh.New(w, h), func(m mesh.Mesh) *fault.Set { return fault.NewSet(m) }, opts)
}

// Restore returns a W x H network rebuilt to a recovered state: the given
// fault configuration published as snapshot version — the constructor
// crash-recovery layers (internal/journal, internal/server) use so that
// a rebooted network serves the exact pre-crash snapshot version and
// later transactions continue the same monotone sequence. It fails with
// ErrOutsideMesh for degenerate dimensions or out-of-range faults, and
// rejects version 0 (published versions start at 1).
func Restore(w, h int, faults []Coord, version uint64, opts engine.Options) (*Network, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("meshroute: restore dimensions %dx%d: %w", w, h, ErrOutsideMesh)
	}
	if version < 1 {
		return nil, fmt.Errorf("meshroute: restore version %d: published versions start at 1", version)
	}
	m := mesh.New(w, h)
	for _, c := range faults {
		if !m.In(c) {
			return nil, fmt.Errorf("meshroute: restored fault %v outside %v: %w", c, m, ErrOutsideMesh)
		}
	}
	opts.StartVersion = version
	return newNetwork(m, func(m mesh.Mesh) *fault.Set {
		f := fault.NewSet(m)
		for _, c := range faults {
			f.Add(c)
		}
		return f
	}, opts), nil
}

// newNetwork builds a Network over m, chaining the network's Watch
// fan-out after any caller-provided OnPublish observer (journal first,
// then notification — a watcher never sees an event its journal record
// could trail behind).
func newNetwork(m mesh.Mesh, seed func(mesh.Mesh) *fault.Set, opts engine.Options) *Network {
	n := &Network{m: m}
	user := opts.OnPublish
	opts.OnPublish = func(version uint64, delta engine.Delta) {
		if user != nil {
			user(version, delta)
		}
		n.fanout(version, delta)
	}
	n.router = engine.New(seed(m), opts)
	return n
}

// NewSquare returns an n x n network, the paper's configuration.
func NewSquare(n int) *Network { return New(n, n) }

// Width returns the X extent of the mesh.
func (n *Network) Width() int { return n.m.Width() }

// Height returns the Y extent of the mesh.
func (n *Network) Height() int { return n.m.Height() }

// RouteRequest asks for one routing from Src to Dst. Algorithm, policy,
// and oracle behavior come from RouteOptions (default: RB2, the diagonal
// policy, oracle on).
type RouteRequest struct {
	Src, Dst Coord
}

// OracleReport compares a routed walk against the independent BFS oracle.
type OracleReport struct {
	// Optimal is the true shortest-path length D(s,d).
	Optimal int
	// Shortest reports whether the walk achieved the optimum.
	Shortest bool
	// ManhattanFeasible reports whether a Manhattan-distance path existed.
	ManhattanFeasible bool
}

// RouteResponse reports one delivered routing.
type RouteResponse struct {
	// Path is the node sequence walked, source first.
	Path []Coord
	// Hops is the walked length.
	Hops int
	// Phases counts intermediate detour destinations used (RB2/RB3).
	Phases int
	// DetourHops counts hops taken in wall-following detour mode.
	DetourHops int
	// WallFlips counts orbit-livelock recoveries: forced flips of the
	// detour wall side after revisiting the same node too often.
	WallFlips int
	// Downgraded reports that a detour downgraded its wall from the
	// MCC-region boundary to the physical (faulty-only) boundary — the
	// escape hatch for sources enclosed by unsafe nodes.
	Downgraded bool
	// SnapshotVersion identifies the engine snapshot that served the
	// request (monotone across fault publications).
	SnapshotVersion uint64
	// Oracle carries the BFS comparison; nil when WithoutOracle was set.
	Oracle *OracleReport
	// WalkDuration is the wall-clock cost of the routing walk itself;
	// OracleDuration that of the BFS-oracle comparison (zero when
	// WithoutOracle was set). Serving layers surface them as the walk and
	// oracle spans of per-request timing breakdowns.
	WalkDuration   time.Duration
	OracleDuration time.Duration
}

// Route routes one request on the published fault configuration. It fails
// with a typed error when an endpoint is outside the mesh or faulty, the
// destination is unreachable (oracle on), the walk aborts, or ctx is
// canceled — see the taxonomy in errors.go. The whole call (endpoint
// checks, walk, oracle) is served from one pinned snapshot.
func (n *Network) Route(ctx context.Context, req RouteRequest, opts ...RouteOption) (RouteResponse, error) {
	cfg := newRouteConfig(opts)
	snap := n.router.Snapshot()
	res, err := snap.RouteCtx(ctx, cfg.algo, req.Src, req.Dst, cfg.opts)
	if err != nil {
		return RouteResponse{}, fmt.Errorf("meshroute: %w", err)
	}
	return finishResponse(snap, cfg, req.Src, req.Dst, res)
}

// finishResponse classifies a raw engine result into the v1 response and
// error taxonomy, running the BFS oracle when enabled. Shared by Route and
// the RouteBatch workers; everything reads the one pinned snapshot. Oracle
// distances come from the snapshot's spath.Oracle cache, so requests that
// share an endpoint (repeated sources in a batch, hot destinations) reuse
// one BFS field instead of recomputing an O(nodes) search per pair.
func finishResponse(snap *engine.Snapshot, cfg routeConfig, s, d Coord, res engine.Result) (RouteResponse, error) {
	optimal := int32(-1)
	var oracleDur time.Duration
	if cfg.oracle {
		oracleStart := time.Now()
		optimal = snap.Oracle().Dist(s, d)
		oracleDur = time.Since(oracleStart)
		if optimal >= spath.Infinite {
			return RouteResponse{}, fmt.Errorf("meshroute: %v unreachable from %v: %w", d, s, ErrUnreachable)
		}
	}
	if !res.Delivered {
		return RouteResponse{}, &ErrAborted{
			Algorithm: cfg.algo, Src: s, Dst: d,
			Reason: res.Abort, Hops: max(len(res.Path)-1, 0), Path: res.Path,
			WallFlips: res.WallFlips, Downgraded: res.Downgraded,
		}
	}
	resp := RouteResponse{
		Path:            res.Path,
		Hops:            res.Hops,
		Phases:          res.Phases,
		DetourHops:      res.DetourHops,
		WallFlips:       res.WallFlips,
		Downgraded:      res.Downgraded,
		SnapshotVersion: res.Version,
		WalkDuration:    res.Elapsed,
		OracleDuration:  oracleDur,
	}
	if cfg.oracle {
		resp.Oracle = &OracleReport{
			Optimal:  int(optimal),
			Shortest: res.Hops == int(optimal),
			// A path of exactly Manhattan length exists iff the BFS
			// optimum equals M(s,d): every M(s,d)-hop path is monotone.
			ManhattanFeasible: int(optimal) == s.Manhattan(d),
		}
	}
	return resp, nil
}

// Engine returns the routing engine serving this network. The returned
// Router is safe for concurrent use; its snapshot reflects the published
// configuration at call time.
func (n *Network) Engine() *engine.Router { return n.router }

// Analysis exposes the published precomputed per-orientation analysis.
// The returned Analysis is immutable and safe for concurrent use.
func (n *Network) Analysis() *routing.Analysis {
	return n.router.Snapshot().Analysis()
}

// MCCs returns the fault regions for the canonical (north-east) travel
// orientation.
func (n *Network) MCCs() []*mcc.MCC { return n.Analysis().MCCs(mesh.NE).All() }

// InfoStore returns the information model for the canonical orientation;
// useful for inspecting propagation cost. It is nil when the network's
// engine was built without the model (engine.Options.Models).
func (n *Network) InfoStore(m info.Model) *info.Store {
	return n.Analysis().Store(m, mesh.NE)
}

// LabelCounts returns the node-status census for the canonical orientation:
// safe, faulty, useless, and can't-reach counts (Figure 5(a)'s inputs).
func (n *Network) LabelCounts() (safe, faulty, useless, cantReach int) {
	return n.Analysis().Grid(mesh.NE).Counts()
}
