package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectOfNormalizes(t *testing.T) {
	r := RectOf(C(5, 1), C(2, 7))
	want := Rect{X0: 2, Y0: 1, X1: 5, Y1: 7}
	if r != want {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{X0: 2, Y0: 3, X1: 5, Y1: 6}
	in := []Coord{C(2, 3), C(5, 6), C(2, 6), C(5, 3), C(3, 4)}
	out := []Coord{C(1, 3), C(6, 3), C(2, 2), C(5, 7), C(0, 0)}
	for _, c := range in {
		if !r.Contains(c) {
			t.Errorf("%v should contain %v", r, c)
		}
	}
	for _, c := range out {
		if r.Contains(c) {
			t.Errorf("%v should not contain %v", r, c)
		}
	}
}

func TestRectLineSegments(t *testing.T) {
	// [x:x, y:y'] is a line segment along the Y dimension.
	seg := Rect{X0: 4, Y0: 1, X1: 4, Y1: 5}
	if seg.Width() != 1 || seg.Height() != 5 || seg.Area() != 5 {
		t.Errorf("segment dims = %dx%d area %d", seg.Width(), seg.Height(), seg.Area())
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{X0: 0, Y0: 0, X1: 4, Y1: 4}
	b := Rect{X0: 3, Y0: 2, X1: 7, Y1: 9}
	got := a.Intersect(b)
	want := Rect{X0: 3, Y0: 2, X1: 4, Y1: 4}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	disjoint := Rect{X0: 9, Y0: 9, X1: 10, Y1: 10}
	if a.Intersect(disjoint).Valid() {
		t.Error("intersection of disjoint rects must be invalid")
	}
	if a.Intersect(disjoint).Area() != 0 {
		t.Error("invalid rect must have area 0")
	}
}

func TestRectClip(t *testing.T) {
	m := Square(10)
	r := Rect{X0: -1, Y0: 7, X1: 3, Y1: 10}
	want := Rect{X0: 0, Y0: 7, X1: 3, Y1: 9}
	if g := r.Clip(m); g != want {
		t.Errorf("Clip = %v, want %v", g, want)
	}
	if off := (Rect{X0: 10, Y0: 0, X1: 12, Y1: 3}).Clip(m); off.Valid() {
		t.Errorf("Clip of a rect beside the mesh = %v, want invalid", off)
	}
}

func TestRectEachCountsArea(t *testing.T) {
	r := Rect{X0: 2, Y0: 2, X1: 4, Y1: 5}
	n := 0
	r.Each(func(Coord) { n++ })
	if n != r.Area() {
		t.Errorf("Each visited %d, want %d", n, r.Area())
	}
	invalid := Rect{X0: 3, Y0: 0, X1: 1, Y1: 5}
	invalid.Each(func(Coord) { t.Error("Each on invalid rect must not iterate") })
}

func TestRectPropertyIntersectionContainment(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy uint8) bool {
		a := RectOf(C(int(ax%32), int(ay%32)), C(int(bx%32), int(by%32)))
		b := RectOf(C(int(cx%32), int(cy%32)), C(int(dx%32), int(dy%32)))
		i := a.Intersect(b)
		ok := true
		i.Each(func(c Coord) {
			if !a.Contains(c) || !b.Contains(c) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRectString(t *testing.T) {
	if s := (Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}).String(); s != "[1:3, 2:4]" {
		t.Errorf("String = %q", s)
	}
}

func TestRectOfRandomAlwaysValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a, b := randCoord(r, 50), randCoord(r, 50)
		rect := RectOf(a, b)
		if !rect.Valid() {
			t.Fatalf("RectOf(%v,%v) invalid", a, b)
		}
		if !rect.Contains(a) || !rect.Contains(b) {
			t.Fatalf("RectOf(%v,%v) = %v does not contain corners", a, b, rect)
		}
	}
}
