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

// Top returns the highest row occupied (y of the north-east cell); the
// paper writes it as y_{c'} - 1.
func (f *MCC) Top() int { return f.Y1 }

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
	if len(f.ColLo) != f.X1-f.X0+1 || len(f.ColHi) != len(f.ColLo) {
		return fmt.Errorf("mcc %v: column profile length mismatch", f)
	}
	if len(f.RowLo) != f.Y1-f.Y0+1 || len(f.RowHi) != len(f.RowLo) {
		return fmt.Errorf("mcc %v: row profile length mismatch", f)
	}
	cells := 0
	for i := range f.ColLo {
		if f.ColLo[i] > f.ColHi[i] {
			return fmt.Errorf("mcc %v: column %d empty interval", f, f.X0+i)
		}
		if i > 0 && (f.ColLo[i] < f.ColLo[i-1] || f.ColHi[i] < f.ColHi[i-1]) {
			return fmt.Errorf("mcc %v: column profile not monotone at %d", f, f.X0+i)
		}
		cells += f.ColHi[i] - f.ColLo[i] + 1
	}
	if cells != f.Cells {
		return fmt.Errorf("mcc %v: %d cells in column profile, %d extracted (non-contiguous interval)", f, cells, f.Cells)
	}
	cells = 0
	for i := range f.RowLo {
		if f.RowLo[i] > f.RowHi[i] {
			return fmt.Errorf("mcc %v: row %d empty interval", f, f.Y0+i)
		}
		if i > 0 && (f.RowLo[i] < f.RowLo[i-1] || f.RowHi[i] < f.RowHi[i-1]) {
			return fmt.Errorf("mcc %v: row profile not monotone at %d", f, f.Y0+i)
		}
		cells += f.RowHi[i] - f.RowLo[i] + 1
	}
	if cells != f.Cells {
		return fmt.Errorf("mcc %v: %d cells in row profile, %d extracted", f, cells, f.Cells)
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
	// colIndex[x] lists the MCCs occupying column x, ordered by ascending
	// ColLo at that column; rowIndex likewise by row.
	colIndex [][]*MCC
	rowIndex [][]*MCC
	// succY/succX lazily cache per-component successor lists (Equation 4)
	// for each chain axis; see sequence.go.
	succY [][]*MCC
	succX [][]*MCC
}

// Extract identifies every MCC of the labeled grid and builds the query
// indices. Components are discovered in row-major order of their
// south-west-most (lowest row, then lowest column) cell, which fixes IDs
// deterministically.
func Extract(g *labeling.Grid) *Set {
	m := g.Mesh()
	s := &Set{
		grid:     g,
		byCell:   make([]int32, m.Nodes()),
		colIndex: make([][]*MCC, m.Width()),
		rowIndex: make([][]*MCC, m.Height()),
	}
	var stack []mesh.Coord
	var nbuf [4]mesh.Coord
	m.EachNode(func(seed mesh.Coord) {
		si := m.Index(seed)
		if !g.Unsafe(seed) || s.byCell[si] != 0 {
			return
		}
		id := len(s.all)
		f := &MCC{ID: id, X0: seed.X, X1: seed.X, Y0: seed.Y, Y1: seed.Y}
		// Flood-fill the 4-connected unsafe component.
		stack = append(stack[:0], seed)
		s.byCell[si] = int32(id) + 1
		var cells []mesh.Coord
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cells = append(cells, c)
			if c.X < f.X0 {
				f.X0 = c.X
			}
			if c.X > f.X1 {
				f.X1 = c.X
			}
			if c.Y < f.Y0 {
				f.Y0 = c.Y
			}
			if c.Y > f.Y1 {
				f.Y1 = c.Y
			}
			for _, n := range m.Neighbors(c, nbuf[:0]) {
				ni := m.Index(n)
				if g.Unsafe(n) && s.byCell[ni] == 0 {
					s.byCell[ni] = int32(id) + 1
					stack = append(stack, n)
				}
			}
		}
		f.Cells = len(cells)
		// Build column and row profiles.
		w := f.X1 - f.X0 + 1
		h := f.Y1 - f.Y0 + 1
		f.ColLo = make([]int, w)
		f.ColHi = make([]int, w)
		f.RowLo = make([]int, h)
		f.RowHi = make([]int, h)
		for i := range f.ColLo {
			f.ColLo[i] = f.Y1 + 1 // sentinel: above everything
			f.ColHi[i] = f.Y0 - 1
		}
		for i := range f.RowLo {
			f.RowLo[i] = f.X1 + 1
			f.RowHi[i] = f.X0 - 1
		}
		for _, c := range cells {
			ci, ri := c.X-f.X0, c.Y-f.Y0
			if c.Y < f.ColLo[ci] {
				f.ColLo[ci] = c.Y
			}
			if c.Y > f.ColHi[ci] {
				f.ColHi[ci] = c.Y
			}
			if c.X < f.RowLo[ri] {
				f.RowLo[ri] = c.X
			}
			if c.X > f.RowHi[ri] {
				f.RowHi[ri] = c.X
			}
		}
		s.all = append(s.all, f)
	})
	// Column/row membership indices, ordered by interval position.
	for _, f := range s.all {
		for x := f.X0; x <= f.X1; x++ {
			s.colIndex[x] = insertByColLo(s.colIndex[x], f, x)
		}
		for y := f.Y0; y <= f.Y1; y++ {
			s.rowIndex[y] = insertByRowLo(s.rowIndex[y], f, y)
		}
	}
	// Prefill the per-axis successor caches (sequence.go): after Extract
	// returns, the Set is read-only, so concurrent FindSequence callers
	// sharing one analysis snapshot never write it. The lazy fill the
	// caches started with raced once routing went concurrent.
	for _, f := range s.all {
		s.successors(f, axisY)
		s.successors(f, axisX)
	}
	return s
}

func insertByColLo(list []*MCC, f *MCC, x int) []*MCC {
	lo := f.ColLo[x-f.X0]
	pos := len(list)
	for i, o := range list {
		if o.ColLo[x-o.X0] > lo {
			pos = i
			break
		}
	}
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = f
	return list
}

func insertByRowLo(list []*MCC, f *MCC, y int) []*MCC {
	lo := f.RowLo[y-f.Y0]
	pos := len(list)
	for i, o := range list {
		if o.RowLo[y-o.Y0] > lo {
			pos = i
			break
		}
	}
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = f
	return list
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

// InColumn returns the components occupying column x, ordered by ascending
// bottom row at that column.
func (s *Set) InColumn(x int) []*MCC {
	if x < 0 || x >= len(s.colIndex) {
		return nil
	}
	return s.colIndex[x]
}

// InRow returns the components occupying row y, ordered by ascending left
// column at that row.
func (s *Set) InRow(y int) []*MCC {
	if y < 0 || y >= len(s.rowIndex) {
		return nil
	}
	return s.rowIndex[y]
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
