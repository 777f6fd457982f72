package meshroute

import (
	"context"

	"repro/internal/engine"
)

// Pair is one source/destination request for RouteBatch.
type Pair = engine.Pair

// BatchRequest asks for a batch of routings served from one snapshot.
type BatchRequest struct {
	Pairs []Pair
}

// BatchItem is one streamed batch outcome: either a RouteResponse or a
// typed error from the v1 taxonomy. Items arrive in completion order;
// Index identifies the pair's position in the request.
type BatchItem struct {
	Index    int
	Pair     Pair
	Response RouteResponse
	Err      error
}

// Batch streams the outcomes of one RouteBatch call. Results arrive as
// workers complete them (completion order, O(workers) buffering — a
// million-pair sweep never materializes a million-element slice). Consume
// with Next; call Err after the stream ends to learn whether it was cut
// short by the context. A Batch is single-consumer: share items, not the
// iterator.
//
// A Batch abandoned before exhaustion holds its worker pool and pinned
// snapshot alive: call Close (or cancel the request context) to release
// them. Fully consumed batches release everything on their own.
type Batch struct {
	items  <-chan BatchItem
	pairs  []Pair
	served int
	ctx    context.Context
	cancel context.CancelFunc
	err    error
}

// Next returns the next outcome; ok is false once the stream is exhausted
// (all pairs served, or the context canceled — check Err).
func (b *Batch) Next() (item BatchItem, ok bool) {
	if item, ok = <-b.items; ok {
		b.served++
		return item, true
	}
	if b.served < len(b.pairs) && b.err == nil {
		b.err = canceledErr(b.ctx)
	}
	b.cancel() // release the derived context once the stream is done
	return item, false
}

// Len returns the number of requested pairs.
func (b *Batch) Len() int { return len(b.pairs) }

// Err reports why the stream ended early: nil after a complete batch, an
// ErrCanceled-wrapping error when the context was canceled mid-batch.
// Only valid after the stream is exhausted (Next returned ok=false).
func (b *Batch) Err() error { return b.err }

// Close abandons the batch: in-flight workers stop promptly and the
// pinned snapshot is released. Remaining buffered items stay readable
// until the stream closes; Err then reports the cancellation. Close is
// idempotent and unnecessary after the stream is exhausted.
func (b *Batch) Close() { b.cancel() }

// Drain consumes the remaining stream into a slice ordered by Index and
// returns it with Err. Slots for pairs the cancellation left unrouted
// carry the cancellation error. Intended for small batches; streaming
// consumers should iterate Next instead.
func (b *Batch) Drain() ([]BatchItem, error) {
	out := make([]BatchItem, len(b.pairs))
	seen := make([]bool, len(b.pairs))
	for {
		item, ok := b.Next()
		if !ok {
			break
		}
		out[item.Index] = item
		seen[item.Index] = true
	}
	if b.err != nil {
		for i := range out {
			if !seen[i] {
				out[i] = BatchItem{Index: i, Pair: b.pairs[i], Err: b.err}
			}
		}
	}
	return out, b.err
}

// RouteBatch routes every pair of the request across a worker pool
// (WithWorkers; default and cap GOMAXPROCS), all served from one
// consistent snapshot pinned at call time. It returns immediately;
// outcomes stream through the returned Batch. Canceling ctx aborts the
// in-flight batch promptly: workers stop between pairs and mid-walk, the
// stream closes, and Batch.Err reports the cancellation.
//
// Each item carries the same typed errors as Route. The BFS oracle runs
// per delivered pair, on the worker that walked it, unless WithoutOracle
// is set — skip it on hot paths.
func (n *Network) RouteBatch(ctx context.Context, req BatchRequest, opts ...RouteOption) (*Batch, error) {
	cfg := newRouteConfig(opts)
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	// Derive an owned context so Close can abandon the batch (stopping the
	// engine workers) without the caller's ctx.
	bctx, cancel := context.WithCancel(ctx)
	snap := n.router.Snapshot()
	items := engine.MapBatch(bctx, snap, cfg.algo, req.Pairs, cfg.workers, cfg.opts, func(item engine.BatchItem) BatchItem {
		out := BatchItem{Index: item.Index, Pair: item.Pair, Err: item.Err}
		if item.Err == nil {
			out.Response, out.Err = finishResponse(snap, cfg, item.Pair.S, item.Pair.D, item.Res)
		}
		return out
	})
	return &Batch{items: items, pairs: req.Pairs, ctx: bctx, cancel: cancel}, nil
}
