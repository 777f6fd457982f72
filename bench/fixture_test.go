package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mesh"
)

func encode(t *testing.T, fx *Fixture) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Faults             []mesh.Coord
		Pairs, OraclePairs []Pair
		Hot                []mesh.Coord
		Deltas             []Delta
	}{fx.Faults, fx.Pairs, fx.OraclePairs, fx.Hot, fx.Deltas})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFixtureDeterministic(t *testing.T) {
	sizes := []Size{Small}
	if !testing.Short() {
		sizes = append(sizes, Paper)
	}
	for _, size := range sizes {
		a, b, c := encode(t, NewFixture(size, 1)), encode(t, NewFixture(size, 1)), encode(t, NewFixture(size, 2))
		if !bytes.Equal(a, b) {
			t.Errorf("%dx%d: fixture 1 differs between builds", size.W, size.H)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%dx%d: fixtures 1 and 2 are identical", size.W, size.H)
		}
		f1, f2 := NewFixture(size, 1), NewFixture(size, 2)
		for name, same := range map[string]bool{
			"faults": reflect.DeepEqual(f1.Faults, f2.Faults), "pairs": reflect.DeepEqual(f1.Pairs, f2.Pairs),
			"hot sources": reflect.DeepEqual(f1.Hot, f2.Hot), "deltas": reflect.DeepEqual(f1.Deltas, f2.Deltas),
		} {
			if same {
				t.Errorf("%dx%d: fixtures 1 and 2 share their %s", size.W, size.H, name)
			}
		}
	}
	if !reflect.DeepEqual(Order(100, 3), Order(100, 3)) || reflect.DeepEqual(Order(100, 3), Order(100, 4)) {
		t.Error("Order is not a function of its seed alone")
	}
}

// TestFixtureValid checks fixtures on several fault sets. The benchmark
// always sends Paper fixture 1; the other seeds show that the generator,
// not one lucky fault set, gives healthy reachable pairs and clean deltas.
func TestFixtureValid(t *testing.T) {
	sizes := []Size{Small}
	if !testing.Short() {
		sizes = append(sizes, Paper)
	}
	for _, size := range sizes {
		for _, seed := range []int64{1, 2, 3} {
			checkFixture(t, size, seed)
		}
	}
}

func checkFixture(t *testing.T, size Size, seed int64) {
	t.Helper()
	fx := NewFixture(size, seed)
	if len(fx.Faults) != size.Faults {
		t.Fatalf("%dx%d fixture %d: %d faults, want %d", size.W, size.H, seed, len(fx.Faults), size.Faults)
	}
	endpoints := map[mesh.Coord]bool{}
	for _, ps := range [][]Pair{fx.Pairs, fx.OraclePairs} {
		if len(ps) != size.Pairs {
			t.Fatalf("%dx%d fixture %d: %d pairs, want %d", size.W, size.H, seed, len(ps), size.Pairs)
		}
		for _, p := range ps {
			endpoints[p.Src], endpoints[p.Dst] = true, true
			if fx.Grid.Faulty(p.Src) || fx.Grid.Faulty(p.Dst) || p.Src == p.Dst {
				t.Fatalf("%dx%d fixture %d: pair %v->%v has a faulty or repeated endpoint", size.W, size.H, seed, p.Src, p.Dst)
			}
			if d := fx.Grid.Distance(p.Src, p.Dst); d == Unreachable || d != p.Dist {
				t.Fatalf("%dx%d fixture %d: pair %v->%v distance %d, recorded %d", size.W, size.H, seed, p.Src, p.Dst, d, p.Dist)
			}
		}
	}
	hot := map[mesh.Coord]bool{}
	for _, c := range fx.Hot {
		hot[c] = true
	}
	for _, p := range fx.OraclePairs {
		if !hot[p.Src] {
			t.Fatalf("%dx%d fixture %d: oracle pair source %v is not hot", size.W, size.H, seed, p.Src)
		}
	}
	live := map[mesh.Coord]bool{}
	for _, c := range fx.Faults {
		live[c] = true
	}
	var prev []mesh.Coord
	for k, d := range fx.Deltas {
		if !reflect.DeepEqual(d.Repairs, prev) {
			t.Fatalf("%dx%d fixture %d: delta %d repairs %v, want the previous adds %v", size.W, size.H, seed, k, d.Repairs, prev)
		}
		for _, c := range d.Repairs {
			delete(live, c)
		}
		for _, c := range d.Adds {
			if live[c] {
				t.Fatalf("%dx%d fixture %d: delta %d adds %v, already faulty", size.W, size.H, seed, k, c)
			}
			if endpoints[c] {
				t.Fatalf("%dx%d fixture %d: delta %d adds pair endpoint %v", size.W, size.H, seed, k, c)
			}
			live[c] = true
		}
		prev = d.Adds
	}
}
