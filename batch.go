package meshroute

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

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
// with Next or the C channel; call Err after the stream ends to learn
// whether it was cut short by the context. A Batch is single-consumer:
// share items, not the iterator.
//
// A Batch abandoned before exhaustion holds its worker pool and pinned
// snapshot alive: call Close (or cancel the request context) to release
// them. Fully consumed batches release everything on their own.
type Batch struct {
	items  chan BatchItem
	pairs  []Pair
	total  int
	cancel context.CancelFunc
	err    error // written by the producer before items is closed
}

// Next returns the next outcome; ok is false once the stream is exhausted
// (all pairs served, or the context canceled — check Err).
func (b *Batch) Next() (item BatchItem, ok bool) {
	item, ok = <-b.items
	return item, ok
}

// C exposes the stream as a channel for select-based consumers. It is the
// same stream Next reads; Err is valid once the channel is closed.
func (b *Batch) C() <-chan BatchItem { return b.items }

// Len returns the number of requested pairs.
func (b *Batch) Len() int { return b.total }

// Err reports why the stream ended early: nil after a complete batch, an
// ErrCanceled-wrapping error when the context was canceled mid-batch.
// Only valid after the stream is exhausted (Next returned ok=false or C
// was closed).
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
	out := make([]BatchItem, b.total)
	seen := make([]bool, b.total)
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
// (WithWorkers; default GOMAXPROCS), all served from one consistent
// snapshot pinned at call time. It returns immediately; outcomes stream
// through the returned Batch. Canceling ctx aborts the in-flight batch
// promptly: workers stop between pairs and mid-walk, the stream closes,
// and Batch.Err reports the cancellation.
//
// Each item carries the same typed errors as Route. The BFS oracle runs
// per delivered pair unless WithoutOracle is set — skip it on hot paths.
func (n *Network) RouteBatch(ctx context.Context, req BatchRequest, opts ...RouteOption) (*Batch, error) {
	cfg := n.newRouteConfig(opts)
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	// Derive an owned context so Close can abandon the batch (stopping the
	// engine workers and the mappers) without the caller's ctx.
	bctx, cancel := context.WithCancel(ctx)
	snap := n.router.Snapshot()
	raw := snap.BatchStream(bctx, cfg.algo, req.Pairs, cfg.workers, cfg.opts)
	b := &Batch{
		items:  make(chan BatchItem, cap(raw)),
		pairs:  req.Pairs,
		total:  len(req.Pairs),
		cancel: cancel,
	}
	// Map raw results on a pool the size of the routing pool: with the
	// oracle on, finishResponse runs an O(nodes) BFS per pair, which would
	// otherwise serialize the whole batch behind one mapper.
	mappers := cfg.workers
	if mappers <= 0 {
		mappers = runtime.GOMAXPROCS(0)
	}
	if mappers > len(req.Pairs) {
		mappers = len(req.Pairs)
	}
	if mappers < 1 || !cfg.oracle {
		mappers = 1 // oracle-free mapping is trivial; keep it single
	}
	var served atomic.Int64
	var wg sync.WaitGroup
	wg.Add(mappers)
	for i := 0; i < mappers; i++ {
		go func() {
			defer wg.Done()
			for item := range raw {
				mapped := BatchItem{Index: item.Index, Pair: item.Pair, Err: item.Err}
				if item.Err == nil {
					mapped.Response, mapped.Err = finishResponse(snap, cfg, item.Pair.S, item.Pair.D, item.Res)
				}
				select {
				case b.items <- mapped:
					served.Add(1)
				case <-bctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		if int(served.Load()) < b.total {
			b.err = canceledErr(bctx)
		}
		cancel() // release the derived context once the stream is done
		close(b.items)
	}()
	return b, nil
}
