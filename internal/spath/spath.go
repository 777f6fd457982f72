// Package spath provides the ground-truth path oracles the evaluation
// compares routing algorithms against:
//
//   - BFS over non-faulty nodes gives D(s,d), the true shortest-path length
//     under the existing network configuration (the paper's optimal
//     reference in Figure 5(d) and 5(e)).
//   - A monotone dynamic program decides whether a Manhattan-distance path
//     (only +X/+Y moves) exists between two nodes, the feasibility notion
//     behind the paper's "detection" phase and the M(s,d) vs D(s,d)
//     distinction.
//
// The oracles deliberately use only the fault set (not MCC labels): they
// measure the network, not the model. Tests cross-check the model against
// them — e.g. a Manhattan path over non-faulty nodes exists iff one over
// MCC-safe nodes does.
package spath

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// Infinite marks an unreachable destination in distance grids.
const Infinite = int32(1) << 30

// BFS holds single-source shortest-path distances over the non-faulty
// subgraph of a mesh.
type BFS struct {
	m    mesh.Mesh
	dist []int32
}

// NewBFS computes shortest-path distances from src over non-faulty nodes.
// A faulty source yields a grid where everything (including src) is
// unreachable.
func NewBFS(f *fault.Set, src mesh.Coord) *BFS {
	m := f.Mesh()
	b := &BFS{m: m, dist: make([]int32, m.Nodes())}
	for i := range b.dist {
		b.dist[i] = Infinite
	}
	if f.Faulty(src) || !m.In(src) {
		return b
	}
	qp := bfsQueues.Get().(*[]int32)
	if cap(*qp) < m.Nodes() {
		*qp = make([]int32, 0, m.Nodes())
	}
	si := int32(m.Index(src))
	b.dist[si] = 0
	queue := append((*qp)[:0], si)
	var nbuf [4]mesh.Coord
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		cc := m.CoordOf(int(cur))
		for _, n := range m.Neighbors(cc, nbuf[:0]) {
			ni := int32(m.Index(n))
			if b.dist[ni] == Infinite && !f.Faulty(n) {
				b.dist[ni] = b.dist[cur] + 1
				queue = append(queue, ni)
			}
		}
	}
	bfsQueues.Put(qp)
	return b
}

// bfsQueues pools NewBFS's O(nodes) work queue. The distance field
// outlives the search but the queue does not, and the distance oracle
// fills a field on every cache miss: without the pool each miss would
// discard a queue as large as the field it keeps, and under oracle
// traffic that garbage sets the served process's peak heap.
var bfsQueues = sync.Pool{New: func() any { return new([]int32) }}

// Dist returns D(src, d) in hops, or Infinite when d is unreachable,
// faulty, or outside the mesh.
func (b *BFS) Dist(d mesh.Coord) int32 {
	if !b.m.In(d) {
		return Infinite
	}
	return b.dist[b.m.Index(d)]
}

// Reachable reports whether d can be reached from the source.
func (b *BFS) Reachable(d mesh.Coord) bool { return b.Dist(d) < Infinite }

// Distance computes D(s,d) for a single pair. For many destinations from
// one source, build a NewBFS once instead.
func Distance(f *fault.Set, s, d mesh.Coord) int32 {
	return NewBFS(f, s).Dist(d)
}

// mrRows pools the single-row DP buffers of ManhattanReachable so the
// per-query O(w*h) grid allocation of the original implementation is gone.
var mrRows = sync.Pool{New: func() any { return new([]bool) }}

// ManhattanReachable reports whether a path of length exactly M(s,d)
// — moving only toward the destination in both dimensions — exists from s
// to d over non-faulty nodes. This is the paper's feasibility condition:
// the routing of Algorithm 2 succeeds iff such a path exists.
//
// The decision is a dynamic program over the s–d bounding rectangle: a
// cell is reachable if it is not faulty and one of its predecessor cells
// (toward s) is reachable. The DP needs only the current row, so it runs
// in a pooled O(w) buffer; the orientation transform is hoisted out of
// the per-cell loop into two step signs (the mirrors are affine), and an
// all-blocked row short-circuits the sweep — the original allocated a
// w*h grid and called Orient.From per cell.
func ManhattanReachable(f *fault.Set, s, d mesh.Coord) bool {
	m := f.Mesh()
	if !m.In(s) || !m.In(d) || f.Faulty(s) || f.Faulty(d) {
		return false
	}
	if s == d {
		return true
	}
	// Walk the original-frame rectangle from s toward d; the orientation
	// mirrors reduce to coordinate step signs.
	sx, sy := 1, 1
	if d.X < s.X {
		sx = -1
	}
	if d.Y < s.Y {
		sy = -1
	}
	w := sx*(d.X-s.X) + 1
	h := sy*(d.Y-s.Y) + 1
	rowp := mrRows.Get().(*[]bool)
	defer mrRows.Put(rowp)
	if cap(*rowp) < w {
		*rowp = make([]bool, w)
	}
	row := (*rowp)[:w]
	for y := 0; y < h; y++ {
		cy := s.Y + sy*y
		any := false
		for x := 0; x < w; x++ {
			v := !f.Faulty(mesh.C(s.X+sx*x, cy))
			if v {
				switch {
				case x == 0 && y == 0: // s itself, known non-faulty
				case x == 0:
					v = row[0]
				case y == 0:
					v = row[x-1]
				default:
					v = row[x] || row[x-1]
				}
			}
			row[x] = v
			any = any || v
		}
		if !any {
			return false // a fully blocked row cuts every monotone path
		}
	}
	return row[w-1]
}

// PathValid checks that path is a legal route over non-faulty nodes from s
// to d: starts at s, ends at d, every hop crosses one mesh link, and no
// node is faulty. Routing tests use it on every produced route.
func PathValid(f *fault.Set, s, d mesh.Coord, path []mesh.Coord) bool {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != d {
		return false
	}
	m := f.Mesh()
	for i, c := range path {
		if !m.In(c) || f.Faulty(c) {
			return false
		}
		if i > 0 {
			if _, adj := path[i-1].DirTo(c); !adj {
				return false
			}
		}
	}
	return true
}
