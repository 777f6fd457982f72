package spath

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// DefaultOracleBound is the per-source distance-field cap an Oracle uses
// when constructed with bound <= 0. At the paper's 100x100 scale one field
// is ~40KB, so the default bounds the cache near 10MB.
const DefaultOracleBound = 256

// Oracle is a concurrent-safe, lazily-built, bounded cache of per-source
// BFS distance fields over one frozen fault configuration. It amortizes
// the O(nodes) BFS of Distance across queries that share an endpoint —
// batch traffic from a few hot sources, the evaluation's repeated
// per-trial pairs, and the facade's oracle reports all hit the same
// fields.
//
// The fault set must not change underneath the oracle; internal/engine
// hangs one Oracle off each immutable Snapshot, and Rebase starts the
// next snapshot's oracle empty.
//
// Concurrency: the source index is guarded by a mutex, but fields fill
// outside it through a per-source once (singleflight) — concurrent
// readers of one source wait for a single BFS instead of duplicating it,
// and readers of different sources fill in parallel.
type Oracle struct {
	f     *fault.Set
	bound int

	// The hit/miss counters live behind pointers so that every Rebase
	// generation accumulates into the pair NewOracle allocated, and an
	// engine reports a monotone hit rate across snapshot publications.
	hits   *atomic.Uint64 // queries served from an already-resident field
	misses *atomic.Uint64 // queries that had to create (and fill) a field

	mu sync.Mutex
	// fields is the resident cache, keyed by source mesh.Index.
	//meshlint:guardedby mu
	fields map[int]*oracleField

	// ring is a circular FIFO of the resident source indices (head is the
	// oldest, count entries in use). The previous implementation kept the
	// order in a plain slice and advanced it by reslicing the head away,
	// which pins the evicted backing array forever and re-allocates the
	// tail on every append — under eviction churn the "bounded" cache's
	// order slice grew without bound. The ring reuses its storage.
	//meshlint:guardedby mu
	ring []int
	//meshlint:guardedby mu
	head int
	//meshlint:guardedby mu
	count int
}

type oracleField struct {
	once sync.Once
	bfs  *BFS
	// done flips after the BFS is resident. Eviction consults it to skip
	// entries still filling: evicting a filling entry would let a second
	// caller re-create and re-fill the same source concurrently, wasting
	// a full BFS while the first fill is already underway.
	done atomic.Bool
}

// NewOracle returns an empty oracle over f, caching at most bound
// per-source fields (bound <= 0 means DefaultOracleBound). The caller
// must stop mutating f.
func NewOracle(f *fault.Set, bound int) *Oracle {
	if bound <= 0 {
		bound = DefaultOracleBound
	}
	return &Oracle{
		f:      f,
		bound:  bound,
		hits:   new(atomic.Uint64),
		misses: new(atomic.Uint64),
		fields: make(map[int]*oracleField),
		ring:   make([]int, 0),
	}
}

// Len returns the number of cached distance fields.
func (o *Oracle) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.fields)
}

// Stats returns the cumulative hit/miss counters: a hit is a query served
// from a field already resident in the cache, a miss is a query that had
// to create one (and pay its BFS). The counters span every Rebase
// generation descended from one NewOracle.
func (o *Oracle) Stats() (hits, misses uint64) {
	return o.hits.Load(), o.misses.Load()
}

// pushLocked appends idx to the FIFO ring, growing the storage when full.
func (o *Oracle) pushLocked(idx int) {
	if o.count == len(o.ring) {
		grown := make([]int, max(4, 2*len(o.ring)))
		for i := 0; i < o.count; i++ {
			grown[i] = o.ring[(o.head+i)%len(o.ring)]
		}
		o.ring = grown[:cap(grown)]
		o.head = 0
	}
	o.ring[(o.head+o.count)%len(o.ring)] = idx
	o.count++
}

// evictLocked drops the oldest resident field whose fill has completed.
// Entries still filling rotate to the tail instead of being evicted; if
// every resident entry is mid-fill the cache transiently exceeds its
// bound rather than duplicating an in-flight BFS.
func (o *Oracle) evictLocked() {
	for scanned := 0; scanned < o.count; scanned++ {
		oldest := o.ring[o.head]
		o.head = (o.head + 1) % len(o.ring)
		o.count--
		if e := o.fields[oldest]; e != nil && !e.done.Load() {
			o.pushLocked(oldest)
			continue
		}
		// Readers holding the evicted *BFS keep a valid pointer; only the
		// cache forgets it.
		delete(o.fields, oldest)
		return
	}
}

// entryLocked returns the cache entry for node index idx, creating and
// FIFO-evicting as needed; created reports whether the entry is new.
// Callers hold o.mu.
func (o *Oracle) entryLocked(idx int) (e *oracleField, created bool) {
	if e, ok := o.fields[idx]; ok {
		return e, false
	}
	if len(o.fields) >= o.bound {
		o.evictLocked()
	}
	e = &oracleField{}
	o.fields[idx] = e
	o.pushLocked(idx)
	return e, true
}

// count bumps the hit or miss counter for one query.
//
//meshlint:hotpath
func (o *Oracle) countQuery(created bool) {
	if created {
		o.misses.Add(1)
	} else {
		o.hits.Add(1)
	}
}

// fill completes an entry's BFS from src at most once per cache
// residency (outside the index lock: concurrent readers of one source
// wait on the once, not on the oracle).
func (o *Oracle) fill(e *oracleField, src mesh.Coord) *BFS {
	if e.done.Load() {
		return e.bfs
	}
	e.once.Do(func() {
		e.bfs = NewBFS(o.f, src)
		e.done.Store(true)
	})
	return e.bfs
}

// Field returns the filled BFS distance field from src, computing it at
// most once per cache residency.
//
//meshlint:hotpath
func (o *Oracle) Field(src mesh.Coord) *BFS {
	idx := o.f.Mesh().Index(src)
	o.mu.Lock()
	e, created := o.entryLocked(idx)
	o.mu.Unlock()
	o.countQuery(created)
	return o.fill(e, src)
}

// Dist returns D(s, d) like Distance, served from the cache. The mesh is
// undirected, so a field rooted at either endpoint answers; an existing
// field for d is preferred over computing one for s. One index-lock
// acquisition covers both the d-peek and the s-create.
//
//meshlint:hotpath
func (o *Oracle) Dist(s, d mesh.Coord) int32 {
	m := o.f.Mesh()
	if !m.In(s) || !m.In(d) {
		return Infinite
	}
	o.mu.Lock()
	if e, ok := o.fields[m.Index(d)]; ok {
		o.mu.Unlock()
		o.hits.Add(1)
		return o.fill(e, d).Dist(s)
	}
	e, created := o.entryLocked(m.Index(s))
	o.mu.Unlock()
	o.countQuery(created)
	return o.fill(e, s).Dist(d)
}

// Rebase returns the oracle for the successor fault set next: an empty
// cache over next that keeps o's bound and accumulates into o's hit/miss
// counters, so an engine's hit rate stays monotone across publications.
// Every field refills lazily on demand against next, and o remains valid
// for readers of the old snapshot.
//
// adds and repairs (the delta from o's set to next) are unused and
// carried is always 0: no field is carried over. A field survives only a
// delta that misses its source's connected component, and random faults
// leave one giant component (8,494 of the 8,500 healthy nodes on the
// benchmark fixture), so nearly every delta touches nearly every field.
func (o *Oracle) Rebase(next *fault.Set, adds, repairs []mesh.Coord) (reb *Oracle, carried int) {
	reb = NewOracle(next, o.bound)
	reb.hits, reb.misses = o.hits, o.misses
	return reb, 0
}
