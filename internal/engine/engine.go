// Package engine provides the concurrent routing engine: a Router that
// serves shortest-path routing queries from any number of goroutines while
// fault updates rebuild the analysis off to the side.
//
// # Design
//
// The paper's key property — RB2 reaches the shortest path using only
// *precomputed* fault information (Theorem 1) — makes the routing hot path
// read-only: once the labeling, MCC geometry, and information stores exist,
// a routing walk consults them without writing anything shared. The engine
// exploits that with a snapshot architecture:
//
//   - A Snapshot bundles one fault configuration with its fully
//     precomputed routing.Analysis (see routing.NewAnalysis). Snapshots
//     are immutable; readers never lock.
//   - Router holds the current Snapshot behind an atomic.Pointer. A caller
//     loads it once with Router.Snapshot and serves every query of one
//     request from it (Snapshot.Route, RouteCtx, BatchStream, MapBatch),
//     so a concurrent swap never tears a query.
//   - Swap constructs the next snapshot entirely off-line (the expensive
//     labeling fixpoint, MCC extraction, and information propagation all
//     happen before publication) and then publishes it with a single
//     atomic store. Readers are never blocked; at most they finish
//     their current query against the previous snapshot. Writers are
//     serialized among themselves by a mutex.
//
// This is the one-writer / many-readers regime fault-tolerant routing
// analyses assume when queries vastly outnumber fault events, and the shape
// NoC traffic engines use for data-intensive flows.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
)

// Typed routing errors. Every error the engine returns wraps exactly one
// of these sentinels, so callers dispatch with errors.Is instead of
// string matching. The facade re-exports them as part of the API v1
// error taxonomy.
var (
	// ErrOutsideMesh reports a request endpoint outside the mesh.
	ErrOutsideMesh = errors.New("endpoint outside mesh")
	// ErrFaultyEndpoint reports a faulty source or destination.
	ErrFaultyEndpoint = errors.New("faulty endpoint")
	// ErrCanceled reports a query or batch cut short by its context. The
	// returned error also wraps the context's cause, so both
	// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
	// (or context.DeadlineExceeded) hold.
	ErrCanceled = errors.New("request canceled")
)

// canceled wraps the context's cause together with ErrCanceled.
func canceled(ctx context.Context) error {
	return fmt.Errorf("engine: %w: %w", ErrCanceled, context.Cause(ctx))
}

// Snapshot is one immutable (fault configuration, precomputed analysis)
// pair. The fault set must not be mutated after the snapshot is built;
// NewSnapshot clones its input to enforce that.
//
// A snapshot serves from a pool of routing.Scratch walk buffers (one
// borrowed per in-flight route, one pinned per batch worker) and from the
// lazily-filled spath.Oracle distance-field cache, which snapshot
// replacement invalidates for free. Scratches depend only on the mesh
// shape, so every snapshot a Router publishes shares the router's one
// pool, and scratches stay warm across publications. The pool is held by
// pointer: a pool embedded in the snapshot would keep the retired
// snapshot reachable, through the runtime's pool registry, for two more
// GC cycles.
type Snapshot struct {
	faults   *fault.Set
	analysis *routing.Analysis
	version  uint64
	scratch  *sync.Pool
	oracle   *spath.Oracle
	metrics  Metrics

	// delta is the exact fault transition against the snapshot this one
	// was built from, handed to OnPublish at publication (zero for the
	// initial snapshot).
	delta Delta
}

// NewSnapshot clones f and precomputes the analysis (all information
// models unless opts.Models narrows them).
func NewSnapshot(f *fault.Set, opts Options) *Snapshot {
	frozen := f.Clone()
	a := routing.NewAnalysis(frozen, opts.Models...)
	return &Snapshot{
		faults:   frozen,
		analysis: a,
		scratch:  new(sync.Pool),
		oracle:   spath.NewOracle(frozen, 0),
		metrics:  opts.Metrics,
	}
}

// fullRebuildFactor gates the delta path: when the delta touches at
// least nodes/fullRebuildFactor cells (inject_random replaces the whole
// working set, for example), the router falls back to a full precompute.
// Both paths recompute labels and components from the faults, so the
// fork only skips info replay's checks, which such a delta fails for
// nearly every component.
const fullRebuildFactor = 4

// Faults returns the snapshot's fault set. Callers must treat it as
// read-only.
func (s *Snapshot) Faults() *fault.Set { return s.faults }

// Analysis returns the precomputed analysis. Safe for concurrent use.
func (s *Snapshot) Analysis() *routing.Analysis { return s.analysis }

// Oracle returns the snapshot's BFS distance-field cache: lazily built,
// bounded (spath.DefaultOracleBound), safe for concurrent use, and scoped
// to exactly this fault configuration — a fault publication swaps in a
// fresh snapshot and with it an empty oracle, so cached distances can
// never go stale. Measurement layers use it in place of per-pair
// spath.Distance.
func (s *Snapshot) Oracle() *spath.Oracle { return s.oracle }

// Version returns the monotone publication counter assigned by the Router
// (0 for snapshots built directly via NewSnapshot).
func (s *Snapshot) Version() uint64 { return s.version }

// getScratch borrows a walk scratch from the snapshot's pool, which
// router-built snapshots share.
func (s *Snapshot) getScratch() *routing.Scratch {
	if sc, ok := s.scratch.Get().(*routing.Scratch); ok {
		return sc
	}
	return routing.NewScratch(s.analysis.Mesh())
}

// putScratch returns a borrowed scratch.
func (s *Snapshot) putScratch(sc *routing.Scratch) { s.scratch.Put(sc) }

// Options configure a Router.
type Options struct {
	// Models narrows which information models every snapshot precomputes.
	// Empty means all three (B1, B2, B3); a router serving only RB2 can
	// pass []info.Model{info.B2} to cut the per-publication rebuild cost.
	// A walk of an algorithm whose model was excluded does not start: it
	// comes back undelivered with an Abort naming the missing model.
	Models []info.Model
	// Metrics, when non-nil, observes every routed walk (Snapshot.Route,
	// RouteCtx and each batch item) on every snapshot the router
	// publishes. See Metrics.
	Metrics Metrics
	// OnPublish, when non-nil, observes every snapshot publication (every
	// Swap, not the initial snapshot of New): it receives the new
	// snapshot's version and the fault delta against the previous snapshot.
	// The hook runs synchronously inside the writer critical section, so
	// invocations are strictly version-ordered with no gaps — the property
	// journaling and change notification build on. It therefore must not
	// call back into Swap (it would self-deadlock) and should return
	// quickly: readers are never blocked by it, but the next writer is.
	OnPublish func(version uint64, delta Delta)
	// StartVersion seeds the publication counter: the initial snapshot of
	// New publishes as version StartVersion (0 means 1, the default).
	// Recovery layers use it to rebuild a router to its exact pre-crash
	// snapshot version, so replayed state and freshly served versions form
	// one monotone sequence.
	StartVersion uint64
}

// Delta is the fault transition published with one snapshot: the nodes
// that became faulty and the nodes that were repaired relative to the
// previously published snapshot, both in row-major order (fault.Diff).
// OnPublish observers must treat the slices as read-only — they are
// shared with every other observer of the same publication.
type Delta struct {
	Adds    []mesh.Coord
	Repairs []mesh.Coord
}

// Metrics is the engine's serving-side counters hook. A non-nil
// Options.Metrics is invoked once per routed walk — single-pair routes
// and every batch item alike — after the walk completes and before
// its result is returned. Requests rejected before walking (endpoint
// outside the mesh, faulty endpoint) do not reach the hook; serving
// layers count those at their own boundary.
//
// Implementations are called concurrently from every goroutine the engine
// routes on and sit on the zero-allocation hot path: they must be safe
// for concurrent use and fast (atomic counters, not locks around maps).
type Metrics interface {
	// RouteServed records one completed walk: the algorithm, whether the
	// walk delivered, the hops walked, and the wall-clock walk duration.
	RouteServed(algo routing.Algo, delivered bool, hops int, d time.Duration)
}

// Router serves routing queries concurrently over an atomically swappable
// analysis snapshot. The zero value is not usable; construct with New.
//
// Readers (Snapshot, Version, RebuildStats) never block and never lock.
// Writers (Swap) are serialized by an internal mutex and publish with a
// single atomic store.
type Router struct {
	snap atomic.Pointer[Snapshot]
	mu   sync.Mutex // serializes writers; readers never take it
	vers atomic.Uint64
	opts Options

	// Cumulative rebuild accounting across every snapshot this router
	// publishes. The oracle hit/miss pair lives in the oracles, which
	// Rebase hands from each snapshot to the next.
	deltaBuilds atomic.Uint64 // publications served by the incremental path
	fullBuilds  atomic.Uint64 // publications that fell back to full precompute
}

// RebuildStats is the router's cumulative delta-rebuild and oracle
// accounting, all monotone counters.
type RebuildStats struct {
	// OracleHits / OracleMisses accumulate across every published
	// snapshot's oracle, so OracleHits/(OracleHits+OracleMisses) is a
	// meaningful served rate even when a scrape straddles a publication.
	OracleHits, OracleMisses uint64
	// DeltaBuilds / FullBuilds count publications by rebuild path.
	DeltaBuilds, FullBuilds uint64
}

// RebuildStats returns the cumulative counters. Safe for concurrent use.
func (r *Router) RebuildStats() RebuildStats {
	hits, misses := r.Snapshot().oracle.Stats()
	return RebuildStats{
		OracleHits:   hits,
		OracleMisses: misses,
		DeltaBuilds:  r.deltaBuilds.Load(),
		FullBuilds:   r.fullBuilds.Load(),
	}
}

// buildSnapshotLocked constructs the next snapshot for f against the
// currently published one. Small deltas take the incremental path,
// routing.RebuildFrom over the exact fault diff; large deltas (at least
// nodes/fullRebuildFactor cells, e.g. an inject_random replacing the
// whole working set) fall back to a full precompute (see
// fullRebuildFactor). Either way the snapshot gets an empty
// oracle that continues the previous one's hit/miss counters. Callers
// hold r.mu so the delta is computed against the snapshot that
// publishLocked will replace.
func (r *Router) buildSnapshotLocked(f *fault.Set) *Snapshot {
	prev := r.snap.Load()
	frozen := f.Clone()
	adds, repairs := fault.Diff(prev.faults, frozen)
	s := &Snapshot{
		faults:  frozen,
		scratch: prev.scratch,
		metrics: r.opts.Metrics,
		delta:   Delta{Adds: adds, Repairs: repairs},
	}
	s.oracle, _ = prev.oracle.Rebase(frozen, adds, repairs)
	if fullRebuildFactor*(len(adds)+len(repairs)) >= frozen.Mesh().Nodes() {
		s.analysis = routing.NewAnalysis(frozen, r.opts.Models...)
		r.fullBuilds.Add(1)
		return s
	}
	s.analysis = routing.RebuildFrom(prev.analysis, frozen, adds, repairs, r.opts.Models...)
	r.deltaBuilds.Add(1)
	return s
}

// New builds a Router serving the given fault configuration. The set is
// cloned; later mutations of f are invisible to the router (use Swap to
// publish changes).
func New(f *fault.Set, opts Options) *Router {
	r := &Router{opts: opts}
	if opts.StartVersion > 0 {
		r.vers.Store(opts.StartVersion - 1)
	}
	// The initial snapshot's scratch pool becomes the router's:
	// buildSnapshotLocked hands it on to every later snapshot.
	s := NewSnapshot(f, opts)
	s.version = r.vers.Add(1)
	r.snap.Store(s)
	return r
}

// Snapshot returns the current snapshot. The result is immutable and stays
// valid (and consistent) however long the caller holds it, even across
// concurrent swaps.
func (r *Router) Snapshot() *Snapshot { return r.snap.Load() }

// Version returns the version of the currently published snapshot.
func (r *Router) Version() uint64 { return r.Snapshot().version }

// Swap publishes a snapshot of f as the new routing state, returning the
// published snapshot. The set is cloned, so later mutations of f are
// invisible to the snapshot. In-flight readers keep their old snapshot;
// new calls see the new one. The analysis reconstruction — delta-scoped
// against the outgoing snapshot, or a full precompute for wholesale
// replacements — happens before the atomic publication, so readers are
// never exposed to a half-built analysis; they are never blocked, only
// the next writer is.
func (r *Router) Swap(f *fault.Set) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.buildSnapshotLocked(f)
	r.publishLocked(s)
	return s
}

// publishLocked assigns the next version, stores the snapshot, and fires
// OnPublish with the delta against the outgoing snapshot. Callers hold
// r.mu, so hook invocations are strictly version-ordered.
func (r *Router) publishLocked(s *Snapshot) {
	s.version = r.vers.Add(1)
	r.snap.Store(s)
	if r.opts.OnPublish != nil {
		r.opts.OnPublish(s.version, s.delta)
	}
}

// Result reports one routed query. The raw walk result is embedded;
// Delivered=false (with Abort set) is a valid outcome, not an error — only
// invalid endpoints error. The engine deliberately does NOT consult the
// BFS oracle: serving stays O(path), and measurement layers (the facade,
// internal/eval) run internal/spath against Snapshot().Faults() themselves.
type Result struct {
	// Result embeds the raw walk (path, hops, phases, detour accounting).
	routing.Result
	// Version identifies the snapshot that served the query.
	Version uint64
	// Elapsed is the wall-clock duration of the walk itself — the same
	// interval a Metrics hook observes — so serving layers can attribute
	// per-request time to the walk span without wrapping the call.
	Elapsed time.Duration
}

// Route routes src -> dst with algo on this snapshot. Safe to call from
// any goroutine, including concurrently with Swap; callers that need
// several operations (the walk plus oracle lookups on Faults()) to observe
// one configuration pin the snapshot once and run them all on it. It
// fails only when an endpoint is faulty or outside the mesh; an
// undelivered walk comes back with Delivered=false and Abort set. A
// non-nil opt.Scratch makes the call unsafe to share across goroutines.
func (s *Snapshot) Route(algo routing.Algo, src, dst mesh.Coord, opt routing.Options) (Result, error) {
	return routeOn(s, algo, src, dst, opt)
}

// RouteCtx routes like Route but under a context: an already-done context
// fails fast with ErrCanceled, and a cancellation or deadline expiry
// mid-walk aborts the walk at the next hop-poll (the walk's step budget is
// hooked to the context via routing.Options.Stop).
func (s *Snapshot) RouteCtx(ctx context.Context, algo routing.Algo, src, dst mesh.Coord, opt routing.Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, canceled(ctx)
	}
	res, err := routeOn(s, algo, src, dst, withStop(ctx, opt))
	if err != nil {
		return res, err
	}
	if !res.Delivered && ctx.Err() != nil {
		// The walk was cut short by the context, not by the topology.
		return Result{}, canceled(ctx)
	}
	return res, nil
}

// withStop hooks the walk's hop budget to ctx, chaining any caller-set
// Stop. Contexts that can never be canceled are left alone.
func withStop(ctx context.Context, opt routing.Options) routing.Options {
	if ctx.Done() == nil {
		return opt
	}
	prev := opt.Stop
	opt.Stop = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prev != nil {
			return prev()
		}
		return nil
	}
	return opt
}

// routeOn runs one query against a pinned snapshot. The walk borrows a
// scratch from the snapshot's pool (unless the caller pinned one in opt,
// as the batch workers do) and the path is detached from the scratch
// buffer, so engine results stay valid indefinitely.
func routeOn(snap *Snapshot, algo routing.Algo, s, d mesh.Coord, opt routing.Options) (Result, error) {
	m := snap.analysis.Mesh()
	if !m.In(s) || !m.In(d) {
		return Result{}, fmt.Errorf("engine: endpoints %v -> %v outside %v: %w", s, d, m, ErrOutsideMesh)
	}
	if snap.faults.Faulty(s) || snap.faults.Faulty(d) {
		return Result{}, fmt.Errorf("engine: %w in %v -> %v", ErrFaultyEndpoint, s, d)
	}
	borrowed := opt.Scratch == nil
	if borrowed {
		opt.Scratch = snap.getScratch()
	}
	start := time.Now()
	res := routing.Route(snap.analysis, algo, s, d, opt)
	elapsed := time.Since(start)
	if snap.metrics != nil {
		snap.metrics.RouteServed(algo, res.Delivered, res.Hops, elapsed)
	}
	res.Path = append([]mesh.Coord(nil), res.Path...)
	if borrowed {
		snap.putScratch(opt.Scratch)
	}
	return Result{Result: res, Version: snap.version, Elapsed: elapsed}, nil
}

// Pair is one source/destination routing request.
type Pair struct {
	S, D mesh.Coord
}

// BatchItem is one streamed batch outcome. Items arrive in completion
// order; Index identifies the pair's position in the request.
type BatchItem struct {
	Index int
	Pair  Pair
	Res   Result
	Err   error
}

// BatchStream streams the raw outcome of every pair: MapBatch with the
// identity mapping.
func (s *Snapshot) BatchStream(ctx context.Context, algo routing.Algo, pairs []Pair, workers int, opt routing.Options) <-chan BatchItem {
	return MapBatch(ctx, s, algo, pairs, workers, opt, func(item BatchItem) BatchItem { return item })
}

// MapBatch fans pairs out across a worker pool pinned to snapshot s and
// sends f of each outcome as soon as it is computed — completion order,
// not input order. f runs on the worker that walked the pair, so per-item
// work beyond the walk (the facade's oracle scoring) spreads across the
// same pool instead of serializing behind the consumer. The channel is
// closed once every pair is served or ctx is canceled; million-pair
// sweeps are consumed with O(workers) buffering instead of an O(pairs)
// result slice.
//
// workers <= 0 means GOMAXPROCS, and larger values are capped at
// GOMAXPROCS: walks are CPU-bound, so more workers than processors add
// only the scratch each one pins (at least 25 bytes per mesh node),
// never throughput.
//
// Cancellation is prompt: workers poll ctx between pairs and within each
// walk (via the hop-budget hook), stop claiming work, and bail even when
// the consumer has stopped receiving.
func MapBatch[T any](ctx context.Context, s *Snapshot, algo routing.Algo, pairs []Pair, workers int, opt routing.Options, f func(BatchItem) T) <-chan T {
	if opt.Scratch != nil {
		panic("engine: batch options must not carry a Scratch (it would race across workers; the batch pins one per worker itself)")
	}
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	opt = withStop(ctx, opt)
	// Two slots per worker let each worker finish its next pair while the
	// consumer is still taking the previous one.
	ch := make(chan T, workers*2+1)
	if len(pairs) == 0 {
		close(ch)
		return ch
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker pins one scratch for its whole share of the
			// batch: reset per walk (an epoch bump), never reallocated.
			opt := opt
			opt.Scratch = s.getScratch()
			defer s.putScratch(opt.Scratch)
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				p := pairs[i]
				res, err := routeOn(s, algo, p.S, p.D, opt)
				if err == nil && !res.Delivered && ctx.Err() != nil {
					err = canceled(ctx) // walk cut short by the context
				}
				select {
				case ch <- f(BatchItem{Index: i, Pair: p, Res: res, Err: err}):
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}
