package mesh

import (
	"math/rand"
	"testing"
)

func TestNewPanicsOnDegenerate(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	m := New(7, 5)
	seen := make(map[int]bool)
	m.EachNode(func(c Coord) {
		idx := m.Index(c)
		if idx < 0 || idx >= m.Nodes() {
			t.Fatalf("Index(%v) = %d out of range", c, idx)
		}
		if seen[idx] {
			t.Fatalf("Index(%v) = %d duplicated", c, idx)
		}
		seen[idx] = true
		if back := m.CoordOf(idx); back != c {
			t.Fatalf("CoordOf(Index(%v)) = %v", c, back)
		}
	})
	if len(seen) != m.Nodes() {
		t.Fatalf("EachNode visited %d nodes, want %d", len(seen), m.Nodes())
	}
}

func TestIndexPanicsOutside(t *testing.T) {
	m := Square(4)
	for _, c := range []Coord{C(-1, 0), C(0, -1), C(4, 0), C(0, 4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%v) did not panic", c)
				}
			}()
			m.Index(c)
		}()
	}
}

func TestCoordOfPanicsOutside(t *testing.T) {
	m := Square(4)
	for _, idx := range []int{-1, 16, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoordOf(%d) did not panic", idx)
				}
			}()
			m.CoordOf(idx)
		}()
	}
}

func TestNeighborAndDegree(t *testing.T) {
	m := Square(3)
	cases := []struct {
		c      Coord
		degree int
	}{
		{C(0, 0), 2}, {C(2, 2), 2}, {C(0, 2), 2}, {C(2, 0), 2},
		{C(1, 0), 3}, {C(0, 1), 3}, {C(2, 1), 3}, {C(1, 2), 3},
		{C(1, 1), 4},
	}
	for _, cs := range cases {
		got := len(m.Neighbors(cs.c, nil))
		if got != cs.degree {
			t.Errorf("len(Neighbors(%v)) = %d, want %d", cs.c, got, cs.degree)
		}
	}
	if _, ok := m.Neighbor(C(2, 2), PlusX); ok {
		t.Error("Neighbor off +X border must report false")
	}
	if n, ok := m.Neighbor(C(1, 1), MinusY); !ok || n != C(1, 0) {
		t.Errorf("Neighbor((1,1),-Y) = %v,%v", n, ok)
	}
}

func TestNeighborsReusesDst(t *testing.T) {
	m := Square(5)
	buf := make([]Coord, 0, 4)
	got := m.Neighbors(C(2, 2), buf)
	if len(got) != 4 {
		t.Fatalf("got %d neighbors, want 4", len(got))
	}
	if cap(got) != cap(buf) {
		t.Error("Neighbors reallocated despite sufficient capacity")
	}
}

func TestBoundsContainsAllNodes(t *testing.T) {
	m := New(6, 9)
	b := m.Bounds()
	m.EachNode(func(c Coord) {
		if !b.Contains(c) {
			t.Fatalf("Bounds %v does not contain %v", b, c)
		}
	})
	if b.Area() != m.Nodes() {
		t.Errorf("Bounds area %d != node count %d", b.Area(), m.Nodes())
	}
}

func TestEachNodeRowMajor(t *testing.T) {
	m := New(3, 2)
	var order []Coord
	m.EachNode(func(c Coord) { order = append(order, c) })
	want := []Coord{C(0, 0), C(1, 0), C(2, 0), C(0, 1), C(1, 1), C(2, 1)}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("EachNode order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestMeshString(t *testing.T) {
	if s := New(10, 20).String(); s != "10x20 mesh" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkNeighbors(b *testing.B) {
	m := Square(100)
	r := rand.New(rand.NewSource(1))
	coords := make([]Coord, 1024)
	for i := range coords {
		coords[i] = randCoord(r, 100)
	}
	buf := make([]Coord, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Neighbors(coords[i%len(coords)], buf[:0])
	}
	_ = buf
}
