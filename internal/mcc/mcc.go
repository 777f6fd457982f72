// Package mcc implements the geometry of minimal connected components
// (MCCs) — the fault regions of Wang's model that the paper's information
// models distribute and its routing algorithms detour around.
//
// An MCC is a maximal 4-connected component of unsafe nodes (faulty,
// useless, or can't-reach; see package labeling). At the labeling fixpoint
// every MCC is a *rectilinear-monotone polyomino ascending to the
// north-east*: its column intervals [Lo(x), Hi(x)] are contiguous and both
// Lo and Hi are non-decreasing in x (equivalently for row intervals in y).
// These invariants follow from the labeling rules:
//
//   - the bottom cell of any column has a safe -Y neighbor, so it cannot be
//     can't-reach, hence it is faulty-or-useless; if Lo(x+1) were below
//     Lo(x)-ish the safe node under the step would satisfy the useless rule
//     — contradiction, so Lo is non-decreasing;
//   - symmetrically the top cell of any column is faulty-or-can't-reach and
//     Hi is non-decreasing;
//   - a would-be hole or column gap always exposes a safe node whose +X and
//     +Y neighbors are faulty-or-useless (the components' bottoms), so the
//     closure fills it — intervals are contiguous and components have no
//     holes.
//
// Validate checks all of this and the property tests exercise it on random
// fault fields.
//
// The geometry here is the centralized reference; package info rebuilds the
// same shapes by distributed edge walks and is tested against it.
package mcc

import (
	"fmt"
	"slices"

	"repro/internal/labeling"
	"repro/internal/mesh"
)

// MCC is one minimal connected component in canonical (+X/+Y travel)
// orientation.
type MCC struct {
	// ID is the index of this component within its Set, assigned in
	// row-major order of each component's south-west-most cell.
	ID int

	// X0, X1 bound the columns the component occupies (inclusive).
	X0, X1 int
	// ColLo[i], ColHi[i] bound the rows occupied in column X0+i.
	ColLo, ColHi []int

	// Y0, Y1 bound the rows occupied (inclusive).
	Y0, Y1 int
	// RowLo[i], RowHi[i] bound the columns occupied in row Y0+i.
	RowLo, RowHi []int

	// Cells is the number of unsafe nodes in the component.
	Cells int
}

// Contains reports whether c is one of the component's unsafe cells.
func (f *MCC) Contains(c mesh.Coord) bool {
	if c.X < f.X0 || c.X > f.X1 {
		return false
	}
	i := c.X - f.X0
	return c.Y >= f.ColLo[i] && c.Y <= f.ColHi[i]
}

// Bounds returns the bounding rectangle of the component.
func (f *MCC) Bounds() mesh.Rect {
	return mesh.Rect{X0: f.X0, Y0: f.Y0, X1: f.X1, Y1: f.Y1}
}

// Corner returns the initialization corner c: the position diagonally
// south-west of the component's south-west cell, whose +X and +Y neighbors
// are edge nodes of the component. It may lie outside the mesh (component
// touching the border) or be unsafe (another component diagonally
// adjacent); callers must check usability.
func (f *MCC) Corner() mesh.Coord { return mesh.C(f.X0-1, f.ColLo[0]-1) }

// Opposite returns the opposite corner c': diagonally north-east of the
// component's north-east cell. Same usability caveats as Corner.
func (f *MCC) Opposite() mesh.Coord {
	return mesh.C(f.X1+1, f.ColHi[len(f.ColHi)-1]+1)
}

// String identifies the component for logs and errors.
func (f *MCC) String() string {
	return fmt.Sprintf("F%d%v", f.ID, f.Bounds())
}

// Validate checks the structural invariants guaranteed by the labeling
// fixpoint. A non-nil error means either the extraction is buggy or the
// grid was not a true fixpoint; tests treat any error as fatal.
func (f *MCC) Validate() error {
	if f.X1 < f.X0 || f.Y1 < f.Y0 {
		return fmt.Errorf("mcc %v: empty span", f)
	}
	spans := [2]int{f.X1 - f.X0 + 1, f.Y1 - f.Y0 + 1}
	for _, a := range Axes {
		first, lo, hi := f.Profile(a)
		if len(lo) != spans[a] || len(hi) != len(lo) {
			return fmt.Errorf("mcc %v: profile along %v has %d/%d lines, want %d", f, a, len(lo), len(hi), spans[a])
		}
		cells := 0
		for i := range lo {
			if lo[i] > hi[i] {
				return fmt.Errorf("mcc %v: line %d along %v has an empty interval", f, first+i, a)
			}
			if i > 0 && (lo[i] < lo[i-1] || hi[i] < hi[i-1]) {
				return fmt.Errorf("mcc %v: profile along %v not monotone at line %d", f, a, first+i)
			}
			cells += hi[i] - lo[i] + 1
		}
		if cells != f.Cells {
			return fmt.Errorf("mcc %v: %d cells in profile along %v, %d extracted (non-contiguous interval)", f, cells, a, f.Cells)
		}
	}
	return nil
}

// Set is the collection of all MCCs of a labeled grid, with the spatial
// indices the routing and information layers query.
type Set struct {
	grid *labeling.Grid
	all  []*MCC
	// byCell maps node index -> MCC ID + 1 (0 = safe).
	byCell []int32
	// lines[a][p] lists the MCCs occupying line p along a, ordered by
	// ascending low depth at that line.
	lines [2][][]*MCC
	// succ[a][id] lists component id's structurally valid successors
	// along a (Equation 4), in preference order; see sequence.go.
	succ [2][][]*MCC
}

// Extract identifies every MCC of the labeled grid and builds the query
// indices. It floods from g.UnsafeNodes() in order, so components are
// discovered in row-major order of their south-west-most (lowest row,
// then lowest column) cell, which fixes IDs deterministically.
func Extract(g *labeling.Grid) *Set {
	m := g.Mesh()
	s := &Set{grid: g, byCell: make([]int32, m.Nodes())}
	var stack, cells []mesh.Coord
	var nbuf [4]mesh.Coord
	for _, si := range g.UnsafeNodes() {
		if s.byCell[si] != 0 {
			continue
		}
		seed := m.CoordOf(si)
		id := len(s.all)
		x0, x1, y0, y1 := seed.X, seed.X, seed.Y, seed.Y
		// Flood-fill the 4-connected unsafe component.
		stack = append(stack[:0], seed)
		cells = cells[:0]
		s.byCell[si] = int32(id) + 1
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cells = append(cells, c)
			x0, x1, y0, y1 = min(x0, c.X), max(x1, c.X), min(y0, c.Y), max(y1, c.Y)
			for _, n := range m.Neighbors(c, nbuf[:0]) {
				ni := m.Index(n)
				if g.Unsafe(n) && s.byCell[ni] == 0 {
					s.byCell[ni] = int32(id) + 1
					stack = append(stack, n)
				}
			}
		}
		s.all = append(s.all, buildMCC(id, cells, x0, x1, y0, y1))
	}
	s.index()
	return s
}

// buildMCC materializes one flooded component from its cells and
// bounding box.
func buildMCC(id int, cells []mesh.Coord, x0, x1, y0, y1 int) *MCC {
	f := &MCC{ID: id, X0: x0, X1: x1, Y0: y0, Y1: y1, Cells: len(cells)}
	f.ColLo, f.ColHi = profile(AxisY, cells, x0, x1, y0, y1)
	f.RowLo, f.RowHi = profile(AxisX, cells, y0, y1, x0, x1)
	return f
}

// profile computes the lowest and highest depth of cells on each line
// p0..p1 along a; depths lie within q0..q1.
func profile(a Axis, cells []mesh.Coord, p0, p1, q0, q1 int) (lo, hi []int) {
	lo, hi = make([]int, p1-p0+1), make([]int, p1-p0+1)
	for i := range lo {
		lo[i], hi[i] = q1+1, q0-1 // sentinels: above and below everything
	}
	for _, c := range cells {
		p, q := a.Split(c)
		lo[p-p0], hi[p-p0] = min(lo[p-p0], q), max(hi[p-p0], q)
	}
	return lo, hi
}

// index builds the line indices and the successor lists. Both order by
// profile values and IDs across the whole set, which is why every set
// comes whole from Extract. Filling the successor lists here leaves the
// Set read-only once built, so concurrent FindSequence callers sharing
// one analysis snapshot never write it.
func (s *Set) index() {
	m := s.grid.Mesh()
	ext := make([]extent, len(s.all))
	var buf []*MCC
	for _, a := range Axes {
		s.lines[a] = make([][]*MCC, a.Lines(m))
		for i, f := range s.all {
			first, lo, hi := f.Profile(a)
			ext[i] = extent{first: first, last: first + len(lo) - 1, top: hi[len(hi)-1], lo: lo[0]}
			for p := first; p < first+len(lo); p++ {
				s.lines[a][p] = insertByLo(s.lines[a][p], f, a, p)
			}
		}
		s.succ[a] = make([][]*MCC, len(s.all))
		for _, f := range s.all {
			buf = s.appendSuccessors(buf[:0], ext, f.ID)
			s.succ[a][f.ID] = append([]*MCC(nil), buf...) // exact size; nil when empty
		}
	}
}

// insertByLo inserts f into list, the components on line p along a, after
// every component whose low depth there is not above f's.
func insertByLo(list []*MCC, f *MCC, a Axis, p int) []*MCC {
	first, lo, _ := f.Profile(a)
	pos := len(list)
	for i, o := range list {
		ofirst, olo, _ := o.Profile(a)
		if olo[p-ofirst] > lo[p-first] {
			pos = i
			break
		}
	}
	return slices.Insert(list, pos, f)
}

// Grid returns the labeled grid the set was extracted from.
func (s *Set) Grid() *labeling.Grid { return s.grid }

// All returns every component, ordered by ID.
func (s *Set) All() []*MCC { return s.all }

// Len returns the number of components — the quantity of Figure 5(b).
func (s *Set) Len() int { return len(s.all) }

// At returns the component containing c, or nil for safe/out-of-mesh
// coordinates.
func (s *Set) At(c mesh.Coord) *MCC {
	if !s.grid.Mesh().In(c) {
		return nil
	}
	id := s.byCell[s.grid.Mesh().Index(c)]
	if id == 0 {
		return nil
	}
	return s.all[id-1]
}

// Along returns the components occupying line p along a, ordered by
// ascending low depth at that line.
func (s *Set) Along(a Axis, p int) []*MCC {
	if p < 0 || p >= len(s.lines[a]) {
		return nil
	}
	return s.lines[a][p]
}

// Validate checks every component; see MCC.Validate.
func (s *Set) Validate() error {
	for _, f := range s.all {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}
