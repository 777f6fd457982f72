package bench

import (
	"errors"
	"fmt"

	"repro/internal/mesh"
)

// Grid is the checker's own model of one fault configuration: a faulty
// bitmap and a breadth-first search over the healthy nodes. It shares no
// code with internal/spath or the routing layers, so a bug there cannot
// hide behind the same bug here.
type Grid struct {
	w, h   int
	faulty []bool
}

// NewGrid returns the w×h configuration with the given faulty nodes.
func NewGrid(w, h int, faults []mesh.Coord) *Grid {
	g := &Grid{w: w, h: h, faulty: make([]bool, w*h)}
	for _, c := range faults {
		g.faulty[c.Y*w+c.X] = true
	}
	return g
}

// WithFaults returns a copy of g with adds also faulty.
func (g *Grid) WithFaults(adds []mesh.Coord) *Grid {
	cp := &Grid{w: g.w, h: g.h, faulty: append([]bool(nil), g.faulty...)}
	for _, c := range adds {
		cp.faulty[c.Y*g.w+c.X] = true
	}
	return cp
}

// In reports whether c lies on the mesh.
func (g *Grid) In(c mesh.Coord) bool { return c.X >= 0 && c.X < g.w && c.Y >= 0 && c.Y < g.h }

// Faulty reports whether c is a faulty node.
func (g *Grid) Faulty(c mesh.Coord) bool { return g.In(c) && g.faulty[c.Y*g.w+c.X] }

// Unreachable is the distance Distances reports for nodes the source
// cannot reach.
const Unreachable = int32(-1)

// Distances returns the hop distance from src to every node over healthy
// nodes, indexed y*w+x, with Unreachable for faulty or cut-off nodes.
func (g *Grid) Distances(src mesh.Coord) []int32 {
	dist := make([]int32, g.w*g.h)
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.In(src) || g.Faulty(src) {
		return dist
	}
	queue := make([]int32, 1, 256)
	queue[0] = int32(src.Y*g.w + src.X)
	dist[queue[0]] = 0
	for head := 0; head < len(queue); head++ {
		cur := int(queue[head])
		x, y := cur%g.w, cur/g.w
		for _, n := range [4][2]int{{x + 1, y}, {x - 1, y}, {x, y + 1}, {x, y - 1}} {
			if n[0] < 0 || n[0] >= g.w || n[1] < 0 || n[1] >= g.h {
				continue
			}
			ni := n[1]*g.w + n[0]
			if dist[ni] == Unreachable && !g.faulty[ni] {
				dist[ni] = dist[cur] + 1
				queue = append(queue, int32(ni))
			}
		}
	}
	return dist
}

// Distance returns the hop distance from s to d, or Unreachable.
func (g *Grid) Distance(s, d mesh.Coord) int32 {
	if !g.In(d) {
		return Unreachable
	}
	return g.Distances(s)[d.Y*g.w+d.X]
}

// The ways a delivered route can be wrong. CheckRoute wraps exactly one.
var (
	ErrEndpoints  = errors.New("path does not run from the source to the destination")
	ErrHopCount   = errors.New("hops differs from len(path)-1")
	ErrStep       = errors.New("path step is not a mesh link")
	ErrFaultyNode = errors.New("path visits a faulty or off-mesh node")
	ErrBelowBFS   = errors.New("hops below the BFS distance")
)

// CheckRoute validates a delivered route from src to dst on g: the path
// must start at src and end at dst, claim len(path)-1 hops, move one mesh
// link per step over healthy nodes only, and be no shorter than dist, the
// BFS distance the caller computed on g.
func (g *Grid) CheckRoute(src, dst mesh.Coord, path []mesh.Coord, hops int, dist int32) error {
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("%w: %v -> %v", ErrEndpoints, src, dst)
	}
	if hops != len(path)-1 {
		return fmt.Errorf("%w: hops %d, path of %d nodes", ErrHopCount, hops, len(path))
	}
	for i, c := range path {
		if !g.In(c) || g.Faulty(c) {
			return fmt.Errorf("%w: step %d at %v", ErrFaultyNode, i, c)
		}
		if i > 0 {
			p := path[i-1]
			if dx, dy := c.X-p.X, c.Y-p.Y; dx*dx+dy*dy != 1 {
				return fmt.Errorf("%w: step %d %v -> %v", ErrStep, i, p, c)
			}
		}
	}
	if int32(hops) < dist {
		return fmt.Errorf("%w: %d hops, BFS distance %d", ErrBelowBFS, hops, dist)
	}
	return nil
}
