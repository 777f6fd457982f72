package mesh

import (
	"math/rand"
	"testing"
)

func TestOrientFor(t *testing.T) {
	cases := []struct {
		s, d Coord
		want Orient
	}{
		{C(0, 0), C(5, 5), NE},
		{C(5, 5), C(0, 9), NW},
		{C(5, 5), C(9, 0), SE},
		{C(5, 5), C(0, 0), SW},
		{C(5, 5), C(5, 5), NE}, // ties canonicalize to NE
		{C(5, 5), C(5, 9), NE},
		{C(5, 5), C(4, 5), NW},
	}
	for _, c := range cases {
		if got := OrientFor(c.s, c.d); got != c.want {
			t.Errorf("OrientFor(%v,%v) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestOrientCanonicalizesToNE(t *testing.T) {
	m := New(17, 13)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := C(r.Intn(17), r.Intn(13))
		d := C(r.Intn(17), r.Intn(13))
		o := OrientFor(s, d)
		cs, cd := o.To(m, s), o.To(m, d)
		if !cs.DominatedBy(cd) {
			t.Fatalf("orient %v failed to canonicalize s=%v d=%v -> %v %v", o, s, d, cs, cd)
		}
		// Manhattan distance is preserved by mirroring.
		if cs.Manhattan(cd) != s.Manhattan(d) {
			t.Fatalf("orientation changed Manhattan distance for %v %v", s, d)
		}
	}
}

func TestOrientInvolution(t *testing.T) {
	m := New(11, 7)
	for _, o := range Orients {
		m.EachNode(func(c Coord) {
			if back := o.From(m, o.To(m, c)); back != c {
				t.Fatalf("orient %v: round trip %v -> %v", o, c, back)
			}
			if !m.In(o.To(m, c)) {
				t.Fatalf("orient %v maps %v outside the mesh", o, c)
			}
		})
	}
}

func TestOrientPreservesAdjacency(t *testing.T) {
	m := New(9, 9)
	r := rand.New(rand.NewSource(3))
	for _, o := range Orients {
		for i := 0; i < 200; i++ {
			c := randCoord(r, 9)
			for _, d := range Directions {
				n, ok := m.Neighbor(c, d)
				if !ok {
					continue
				}
				tc, tn := o.To(m, c), o.To(m, n)
				got, adj := tc.DirTo(tn)
				if !adj {
					t.Fatalf("orient %v broke adjacency %v-%v", o, c, n)
				}
				if want := o.DirTo(d); got != want {
					t.Fatalf("orient %v: dir %v mapped to %v, want %v", o, d, got, want)
				}
			}
		}
	}
}

func TestOrientDirInvolution(t *testing.T) {
	for _, o := range Orients {
		for _, d := range Directions {
			if back := o.DirTo(o.DirTo(d)); back != d {
				t.Errorf("orient %v: direction %v round trips to %v", o, d, back)
			}
		}
	}
}

func TestOrientStrings(t *testing.T) {
	want := map[Orient]string{NE: "NE", NW: "NW", SE: "SE", SW: "SW"}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("String(%d) = %q, want %q", o, o.String(), s)
		}
	}
	if Orient(9).String() != "invalid" {
		t.Error("out-of-range orient must stringify as invalid")
	}
}
