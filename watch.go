package meshroute

import (
	"context"
	"errors"
	"sync"

	"repro/internal/engine"
)

// ErrWatchClosed reports a Watch whose stream ended because Close was
// called (or the watched Network will publish no more events to it).
var ErrWatchClosed = errors.New("watch closed")

// FaultEvent is one committed fault transaction as seen by a Watch: the
// snapshot version it published and the exact fault transition (nodes
// added, nodes repaired, both in row-major order) against the previous
// snapshot. Events are delivered in strictly increasing version order.
//
// The Adds and Repairs slices are shared with every other watcher of the
// same publication; treat them as read-only.
type FaultEvent struct {
	// Version is the engine snapshot version the transaction published.
	Version uint64
	// Adds are the nodes that became faulty.
	Adds []Coord
	// Repairs are the nodes that were healed.
	Repairs []Coord
	// Gap reports that this watcher's buffer overflowed and one or more
	// events older than this one were dropped (slow consumer). The
	// dropped versions are exactly the gap between the previously
	// delivered event's Version and this one; re-sync full state via
	// Faulty/Engine().Snapshot() if the deltas matter.
	Gap bool
}

// DefaultWatchBuffer is the per-watcher event buffer when WithWatchBuffer
// is not given.
const DefaultWatchBuffer = 64

// WatchOption configures a Watch.
type WatchOption func(*watchConfig)

type watchConfig struct {
	buffer int
}

// WithWatchBuffer bounds the per-watcher event buffer (default
// DefaultWatchBuffer). When a consumer falls more than n events behind,
// the oldest buffered events are dropped and the next delivered event
// carries Gap=true — publication never blocks on a slow watcher.
func WithWatchBuffer(n int) WatchOption {
	return func(c *watchConfig) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// Watch is an ordered, bounded-buffer stream of the network's committed
// fault transactions. Obtain one from Network.Watch; consume with Next,
// or select on Ready and drain with Poll. A Watch is single-consumer:
// share events, not the iterator.
type Watch struct {
	n     *Network
	id    uint64
	limit int
	ready chan struct{}

	// mu guards the queue; the publisher (the engine's OnPublish hook)
	// enqueues under it, so it must never be held across blocking work.
	mu sync.Mutex
	// queue is the bounded event buffer.
	//meshlint:guardedby mu
	queue []FaultEvent
	// closed marks the stream over; err is then the terminal cause.
	//meshlint:guardedby mu
	closed bool
	//meshlint:guardedby mu
	err error
	// unhook deregisters the context AfterFunc; nil without one.
	//meshlint:guardedby mu
	unhook func() bool
}

func (w *Watch) lock()   { w.mu.Lock() }
func (w *Watch) unlock() { w.mu.Unlock() }

// Watch subscribes to the network's committed fault transactions: every
// Apply (and every direct engine Swap) that publishes a snapshot
// after this call is delivered as one FaultEvent, in version order with
// no duplicates. Events the consumer does not keep up with are dropped
// oldest-first once the bounded buffer fills; the next delivered event
// then carries Gap=true (and Network.Stats counts the drop).
//
// The watch ends when ctx is canceled (Next then reports the
// cancellation) or Close is called; both unregister the watcher. A
// background ctx and an explicit Close are fine for long-lived watchers.
func (n *Network) Watch(ctx context.Context, opts ...WatchOption) *Watch {
	cfg := watchConfig{buffer: DefaultWatchBuffer}
	for _, o := range opts {
		o(&cfg)
	}
	w := &Watch{
		n:     n,
		limit: cfg.buffer,
		ready: make(chan struct{}, 1),
	}
	n.watchMu.Lock()
	n.watchSeq++
	w.id = n.watchSeq
	if n.watchers == nil {
		n.watchers = make(map[uint64]*Watch)
	}
	n.watchers[w.id] = w
	n.watchMu.Unlock()
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { w.close(canceledErr(ctx)) })
		w.lock()
		w.unhook = stop
		w.unlock()
	}
	return w
}

// fanout delivers one publication to every registered watcher. It runs
// inside the engine's writer critical section (see engine.Options
// .OnPublish), so deliveries are strictly version-ordered; each enqueue
// is a bounded, non-blocking buffer append.
func (n *Network) fanout(version uint64, delta engine.Delta) {
	ev := FaultEvent{Version: version, Adds: delta.Adds, Repairs: delta.Repairs}
	n.watchMu.Lock()
	for _, w := range n.watchers {
		w.enqueue(ev)
	}
	n.watchMu.Unlock()
}

// enqueue appends one event, dropping the oldest buffered event (and
// marking the gap) when the consumer is more than limit events behind.
func (w *Watch) enqueue(ev FaultEvent) {
	w.lock()
	if w.closed {
		w.unlock()
		return
	}
	if len(w.queue) >= w.limit {
		w.queue = w.queue[1:]
		w.n.watchDropped.Add(1)
		// The next event the consumer sees is the first after a hole;
		// flag whichever now heads the queue (the incoming event when
		// the drop emptied it).
		if len(w.queue) > 0 {
			w.queue[0].Gap = true
		} else {
			ev.Gap = true
		}
	}
	w.queue = append(w.queue, ev)
	w.unlock()
	w.notify()
}

func (w *Watch) notify() {
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that receives a token whenever events may be
// buffered — for select-based consumers pairing it with Poll. The signal
// is edge-style and coalesced: one token can cover many events, so drain
// Poll until it reports false after each receive.
func (w *Watch) Ready() <-chan struct{} { return w.ready }

// Poll returns the next buffered event without blocking; ok is false
// when the buffer is empty (or the watch is closed — check Err).
func (w *Watch) Poll() (ev FaultEvent, ok bool) {
	w.lock()
	defer w.unlock()
	if len(w.queue) == 0 {
		return FaultEvent{}, false
	}
	ev = w.queue[0]
	w.queue = w.queue[1:]
	return ev, true
}

// Next blocks until an event is available and returns it. It fails with
// the watch's terminal error once the stream is over: an
// ErrCanceled-wrapping error when the Watch context (or ctx) was
// canceled, ErrWatchClosed after Close. Buffered events are still
// delivered before the terminal error.
func (w *Watch) Next(ctx context.Context) (FaultEvent, error) {
	for {
		w.lock()
		if len(w.queue) > 0 {
			ev := w.queue[0]
			w.queue = w.queue[1:]
			w.unlock()
			return ev, nil
		}
		if w.closed {
			err := w.err
			w.unlock()
			return FaultEvent{}, err
		}
		w.unlock()
		select {
		case <-w.ready:
		case <-ctx.Done():
			return FaultEvent{}, canceledErr(ctx)
		}
	}
}

// Err returns the watch's terminal error: nil while the stream is live,
// ErrWatchClosed after Close, an ErrCanceled-wrapping error after a
// context cancellation.
func (w *Watch) Err() error {
	w.lock()
	defer w.unlock()
	if !w.closed {
		return nil
	}
	return w.err
}

// Close unregisters the watcher and ends the stream: buffered events
// remain readable via Poll/Next until drained, after which Next reports
// ErrWatchClosed. Idempotent and safe to call concurrently with
// publications.
func (w *Watch) Close() { w.close(ErrWatchClosed) }

func (w *Watch) close(cause error) {
	// Deregister the context callback so a closed Watch is not kept
	// reachable by a long-lived ctx (no-op when the callback fired).
	w.lock()
	unhook := w.unhook
	w.unhook = nil
	w.unlock()
	if unhook != nil {
		unhook()
	}
	w.n.watchMu.Lock()
	delete(w.n.watchers, w.id)
	w.n.watchMu.Unlock()
	w.lock()
	if !w.closed {
		w.closed = true
		w.err = cause
	}
	w.unlock()
	w.notify()
}
