// Package bench is meshd's end-to-end benchmark: a seeded fixture, the
// four closed-loop workloads that drive a live meshd with it, a
// correctness checker independent of the routing code, and the traced
// run that splits request and commit time by layer. cmd-style entry:
// bench/meshbench; how to run it and what each number means: README.md.
package bench

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// Size fixes the shape of a fixture.
type Size struct {
	W, H      int // mesh extents
	Faults    int // uniform faults of the base configuration
	Pairs     int // uniform healthy, mutually reachable pairs
	Hot       int // hot sources of the oracle workload
	Deltas    int // churn commits generated
	DeltaSize int // fresh cells each churn commit adds (the next one repairs them)
	Batch     int // pairs per batch request
}

// Paper is the benchmark fixture: the paper's 100×100 mesh at its
// mid-sweep density of 1500 uniform faults (fixture 1 is exactly the root
// benchmarks' benchFaults(1500)), 512 hot sources — twice
// spath.DefaultOracleBound, so the oracle workload's working set is twice
// the cache — and 1024 pairs per workload: small enough that each phase
// of a run sends every pair at least once, which is what makes runs
// comparable (see README.md).
var Paper = Size{W: 100, H: 100, Faults: 1500, Pairs: 1024, Hot: 512, Deltas: 256, DeltaSize: 4, Batch: 256}

// Small is the smoke-test fixture.
var Small = Size{W: 32, H: 32, Faults: 60, Pairs: 256, Hot: 32, Deltas: 64, DeltaSize: 4, Batch: 32}

// Pair is one routing request of the fixture with its BFS distance in the
// base configuration.
type Pair struct {
	Src, Dst mesh.Coord
	Dist     int32
}

// Delta is one churn commit.
type Delta struct {
	Adds, Repairs []mesh.Coord
}

// Fixture is everything the workloads send, built from a fixture seed
// alone. Every benchmark run sends fixture 1 of size Paper (see
// README.md, "The fixture, and why runs share it"): runs vary only the
// order of the traffic, through Order.
type Fixture struct {
	Size
	Seed   int64
	Faults []mesh.Coord // base configuration, row-major
	Grid   *Grid        // the checker's model of Faults
	// Pairs are uniform pairs: healthy, distinct, mutually reachable.
	Pairs []Pair
	// Hot are the oracle workload's sources; OraclePairs draw their
	// source uniformly from Hot and their destination uniformly.
	Hot         []mesh.Coord
	OraclePairs []Pair
	// Deltas is the churn sequence: delta k adds DeltaSize cells that are
	// healthy in the base configuration, on no pair endpoint, and not
	// added by delta k-1, which it repairs.
	Deltas []Delta
}

// substream derives an independent generator for one part of a fixture
// or run, so resizing one part never shifts another.
func substream(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ z>>31)))
}

// NewFixture builds the fixture of the given size from seed.
func NewFixture(size Size, seed int64) *Fixture {
	m := mesh.New(size.W, size.H)
	fx := &Fixture{Size: size, Seed: seed}
	fx.Faults = fault.Uniform{}.Generate(m, size.Faults, rand.New(rand.NewSource(seed))).Coords()
	fx.Grid = NewGrid(size.W, size.H, fx.Faults)

	// One component labelling answers every reachability question.
	comp := make([]int32, size.W*size.H)
	for i := range comp {
		comp[i] = -1
	}
	for i := range comp {
		c := mesh.C(i%size.W, i/size.W)
		if comp[i] >= 0 || fx.Grid.Faulty(c) {
			continue
		}
		for j, d := range fx.Grid.Distances(c) {
			if d != Unreachable {
				comp[j] = int32(i)
			}
		}
	}
	healthy := func(r *rand.Rand) mesh.Coord {
		for {
			c := mesh.C(r.Intn(size.W), r.Intn(size.H))
			if !fx.Grid.Faulty(c) {
				return c
			}
		}
	}
	sameComp := func(s, d mesh.Coord) bool { return comp[s.Y*size.W+s.X] == comp[d.Y*size.W+d.X] }

	r := substream(seed, 1)
	for len(fx.Pairs) < size.Pairs {
		s, d := healthy(r), healthy(r)
		if s != d && sameComp(s, d) {
			fx.Pairs = append(fx.Pairs, Pair{Src: s, Dst: d})
		}
	}
	for i := range fx.Pairs {
		fx.Pairs[i].Dist = fx.Grid.Distance(fx.Pairs[i].Src, fx.Pairs[i].Dst)
	}

	r = substream(seed, 2)
	seen := map[mesh.Coord]bool{}
	for len(fx.Hot) < size.Hot {
		c := healthy(r)
		if !seen[c] {
			seen[c] = true
			fx.Hot = append(fx.Hot, c)
		}
	}
	bySrc := map[mesh.Coord][]int{}
	for len(fx.OraclePairs) < size.Pairs {
		s, d := fx.Hot[r.Intn(len(fx.Hot))], healthy(r)
		if s != d && sameComp(s, d) {
			bySrc[s] = append(bySrc[s], len(fx.OraclePairs))
			fx.OraclePairs = append(fx.OraclePairs, Pair{Src: s, Dst: d})
		}
	}
	for _, s := range fx.Hot {
		if len(bySrc[s]) == 0 {
			continue
		}
		dist := fx.Grid.Distances(s)
		for _, i := range bySrc[s] {
			d := fx.OraclePairs[i].Dst
			fx.OraclePairs[i].Dist = dist[d.Y*size.W+d.X]
		}
	}

	// Churn cells avoid every pair endpoint, so no read ever targets a
	// faulty node mid-churn.
	taken := map[mesh.Coord]bool{}
	for _, ps := range [][]Pair{fx.Pairs, fx.OraclePairs} {
		for _, p := range ps {
			taken[p.Src], taken[p.Dst] = true, true
		}
	}
	r = substream(seed, 3)
	var prev []mesh.Coord
	for len(fx.Deltas) < size.Deltas {
		live := map[mesh.Coord]bool{}
		for _, c := range prev {
			live[c] = true
		}
		var adds []mesh.Coord
		for len(adds) < size.DeltaSize {
			c := healthy(r)
			if !taken[c] && !live[c] {
				live[c] = true
				adds = append(adds, c)
			}
		}
		fx.Deltas = append(fx.Deltas, Delta{Adds: adds, Repairs: prev})
		prev = adds
	}
	return fx
}

// Order returns the traffic order of one run: a permutation of n
// population indices drawn from the run's seed.
func Order(n int, seed int64) []int { return substream(seed, 100).Perm(n) }
