package routing

import (
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// Scratch bundles every per-walk buffer of the routing hot path so that a
// steady-state Route call allocates nothing: the dense visit-count grid
// (replacing the old map[mesh.Coord]int), the detour episode's seen-state
// and walked-ground marks, the Equation 2 planner's memo and cycle-guard
// tables (replacing two maps per planner), the walk's Path storage, and
// the Algorithm 2 candidate buffer.
//
// All node-indexed tables are epoch-tagged: resetting for the next walk,
// detour episode, or planner is a single counter bump, not an O(nodes)
// clear. A Scratch serves one walk at a time and is not safe for
// concurrent use; internal/engine pools one per worker.
//
// When Options.Scratch is set, the returned Result.Path aliases the
// scratch's path buffer and is only valid until the scratch's next use —
// copy it out to keep it. With a nil Options.Scratch, Route walks on a
// fresh scratch that only the returned path keeps.
type Scratch struct {
	nodes int
	width int

	// Walk visit counts (livelock detection), epoch-tagged per walk.
	visit    []uint8
	visitGen []uint32
	walkGen  uint32

	// Detour episode state, epoch-tagged per episode: seen marks
	// (position, heading) pairs, visited marks walked ground.
	seen       []uint32 // nodes * 4, indexed by node*4 + heading-1
	visited    []uint32 // nodes
	episodeGen uint32

	// Planner memo / cycle-guard tables, one per planner nesting level.
	// Cross-orientation recursion nests planners strictly LIFO, so live
	// planners always sit at distinct levels; successive planners at the
	// same level are separated by the table's generation tag. planDepth
	// carries the recursion budget shared across the nest.
	planTables []*planTable
	planLevel  int
	planDepth  int

	// seqs are the blocking-sequence buffers the finders fill: seqs[0]
	// for the walk's own query, seqs[k+1] for a planner node evaluated at
	// planDepth k (at most maxPlanDepth). A planner's options iterate
	// their sequence's chain while deeper evaluations run the finder, so
	// each depth owns one. Between walks they keep a few components of
	// the last analysis reachable; components reference no Set, so a
	// pooled scratch still pins no retired analysis.
	seqs [maxPlanDepth + 2]mcc.Sequence

	// path backs Result.Path across walks; it doubles as the arrival log
	// the walk appends to.
	path []mesh.Coord

	// w is the walk driver state, embedded so Route performs no per-call
	// allocation.
	w walk
}

// NewScratch returns a scratch sized for m. Sizing is also performed
// lazily by Route, so the zero-argument path `&Scratch{}` works too.
func NewScratch(m mesh.Mesh) *Scratch {
	sc := &Scratch{}
	sc.ensure(m)
	return sc
}

// ensure (re)sizes the tables for m. The warm path is the size check
// alone; an actual resize (first use, or a mesh change) drops to the
// unannotated grow, which may allocate.
//
//meshlint:hotpath
func (sc *Scratch) ensure(m mesh.Mesh) {
	if n := m.Nodes(); sc.nodes != n || sc.width != m.Width() {
		sc.grow(m)
	}
}

// grow resizes the tables for m and resets every epoch. Cold by
// construction: ensure only calls it when the mesh shape changed.
func (sc *Scratch) grow(m mesh.Mesh) {
	n := m.Nodes()
	sc.nodes, sc.width = n, m.Width()
	sc.visit = make([]uint8, n)
	sc.visitGen = make([]uint32, n)
	sc.seen = make([]uint32, n*4)
	sc.visited = make([]uint32, n)
	sc.planTables = sc.planTables[:0]
	sc.walkGen, sc.episodeGen = 0, 0
}

// index is the dense node index of an in-mesh coordinate. Callers
// guarantee c is inside the mesh (the walk only tests in-mesh nodes).
//
//meshlint:hotpath
func (sc *Scratch) index(c mesh.Coord) int { return c.Y*sc.width + c.X }

// nextWalk starts a new walk epoch; on uint32 wraparound the tag tables
// are cleared so stale marks can never collide.
//
//meshlint:hotpath
func (sc *Scratch) nextWalk() {
	sc.walkGen++
	if sc.walkGen == 0 {
		clear(sc.visitGen)
		sc.walkGen = 1
	}
}

// bumpVisit increments and returns c's visit count for the current walk.
//
//meshlint:hotpath
func (sc *Scratch) bumpVisit(c mesh.Coord) int {
	i := sc.index(c)
	if sc.visitGen[i] != sc.walkGen {
		sc.visitGen[i] = sc.walkGen
		sc.visit[i] = 0
	}
	sc.visit[i]++
	return int(sc.visit[i])
}

// nextEpisode starts a new detour episode epoch.
//
//meshlint:hotpath
func (sc *Scratch) nextEpisode() {
	sc.episodeGen++
	if sc.episodeGen == 0 {
		clear(sc.seen)
		clear(sc.visited)
		sc.episodeGen = 1
	}
}

// seenState marks (c, heading) for the current episode and reports whether
// it was already seen.
//
//meshlint:hotpath
func (sc *Scratch) seenState(c mesh.Coord, heading mesh.Direction) bool {
	i := sc.index(c)*4 + int(heading) - 1
	if sc.seen[i] == sc.episodeGen {
		return true
	}
	sc.seen[i] = sc.episodeGen
	return false
}

// markVisited records c as walked ground of the current episode.
//
//meshlint:hotpath
func (sc *Scratch) markVisited(c mesh.Coord) { sc.visited[sc.index(c)] = sc.episodeGen }

// wasVisited reports whether c is walked ground of the current episode.
//
//meshlint:hotpath
func (sc *Scratch) wasVisited(c mesh.Coord) bool { return sc.visited[sc.index(c)] == sc.episodeGen }

// planTable is one nesting level's Equation 2 memo: per-node distance and
// validity plus the generation tags that scope entries (memo) and cycle
// marks (onPath) to one planner instance.
type planTable struct {
	dist      []int32
	ok        []bool
	memoGen   []uint32
	onPathGen []uint32
	gen       uint32
}

// planTableAt opens a fresh planner generation in the table of the given
// nesting level, growing the level stack on demand.
//
//meshlint:hotpath
func (sc *Scratch) planTableAt(level int) *planTable {
	for len(sc.planTables) <= level {
		sc.planTables = append(sc.planTables, newPlanTable(sc.nodes)) //meshlint:allow level stack grows only to the deepest cross-orientation nesting ever seen, then is reused
	}
	t := sc.planTables[level]
	t.gen++
	if t.gen == 0 {
		clear(t.memoGen)
		clear(t.onPathGen)
		t.gen = 1
	}
	return t
}

// newPlanTable allocates one nesting level's memo tables (cold: called
// only while the level stack is still growing).
func newPlanTable(nodes int) *planTable {
	return &planTable{
		dist:      make([]int32, nodes),
		ok:        make([]bool, nodes),
		memoGen:   make([]uint32, nodes),
		onPathGen: make([]uint32, nodes),
	}
}
