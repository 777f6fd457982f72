package spath

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

func oracleFaults(t *testing.T, n, count int, seed int64) *fault.Set {
	t.Helper()
	return fault.Uniform{}.Generate(mesh.Square(n), count, rand.New(rand.NewSource(seed)))
}

// TestOracleMatchesDistance pins the cache to the uncached oracle on
// random pairs, including faulty endpoints and repeated sources.
func TestOracleMatchesDistance(t *testing.T) {
	f := oracleFaults(t, 24, 90, 1)
	o := NewOracle(f, 0)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s := mesh.C(r.Intn(24), r.Intn(24))
		d := mesh.C(r.Intn(24), r.Intn(24))
		if got, want := o.Dist(s, d), Distance(f, s, d); got != want {
			t.Fatalf("Dist(%v,%v) = %d, Distance = %d", s, d, got, want)
		}
	}
}

// TestOracleSymmetricReuse locks the undirected-mesh symmetry: a field
// built for one endpoint answers queries with the endpoints swapped
// without growing the cache.
func TestOracleSymmetricReuse(t *testing.T) {
	f := oracleFaults(t, 20, 40, 3)
	o := NewOracle(f, 0)
	s, d := mesh.C(1, 2), mesh.C(17, 15)
	want := o.Dist(s, d)
	if got := o.Dist(d, s); got != want {
		t.Fatalf("swapped Dist = %d, want %d", got, want)
	}
	if o.Len() != 1 {
		t.Fatalf("cache holds %d fields after symmetric queries, want 1", o.Len())
	}
}

// TestOracleBound verifies FIFO eviction keeps the cache at its bound and
// evicted sources still answer correctly on re-query.
func TestOracleBound(t *testing.T) {
	f := oracleFaults(t, 16, 20, 4)
	o := NewOracle(f, 4)
	d := mesh.C(15, 15)
	for x := 0; x < 10; x++ {
		o.Field(mesh.C(x, 0))
	}
	if o.Len() != 4 {
		t.Fatalf("cache holds %d fields, bound 4", o.Len())
	}
	// The first source was evicted; a fresh query must still be correct.
	s := mesh.C(0, 0)
	if got, want := o.Dist(s, d), Distance(f, s, d); got != want {
		t.Fatalf("evicted-source Dist = %d, want %d", got, want)
	}
}

// TestOracleConcurrentIdentical hammers one oracle from many goroutines
// over a shared pair set: every reader must observe identical distances
// (run under -race, this also proves the fill path is data-race free).
func TestOracleConcurrentIdentical(t *testing.T) {
	f := oracleFaults(t, 32, 150, 5)
	o := NewOracle(f, 8) // small bound: eviction races with fills
	type pair struct{ s, d mesh.Coord }
	r := rand.New(rand.NewSource(6))
	pairs := make([]pair, 64)
	want := make([]int32, len(pairs))
	for i := range pairs {
		pairs[i] = pair{mesh.C(r.Intn(32), r.Intn(32)), mesh.C(r.Intn(32), r.Intn(32))}
		want[i] = Distance(f, pairs[i].s, pairs[i].d)
	}
	workers := 8
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, p := range pairs {
					if got := o.Dist(p.s, p.d); got != want[i] {
						select {
						case errs <- mesh.C(w, round).String() + ": mismatch":
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// BenchmarkManhattanReachable measures the feasibility DP at the paper's
// scale over non-faulty endpoint pairs spanning most of the mesh (the
// pre-optimization version allocated a w*h grid and ran the orientation
// transform per cell).
func BenchmarkManhattanReachable(b *testing.B) {
	f := fault.Uniform{}.Generate(mesh.Square(100), 1500, rand.New(rand.NewSource(1)))
	r := rand.New(rand.NewSource(2))
	pairs := make([][2]mesh.Coord, 32)
	for i := range pairs {
		for {
			s := mesh.C(r.Intn(15), r.Intn(15))
			d := mesh.C(85+r.Intn(15), 85+r.Intn(15))
			if !f.Faulty(s) && !f.Faulty(d) {
				pairs[i] = [2]mesh.Coord{s, d}
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ManhattanReachable(f, p[0], p[1])
	}
}

// BenchmarkOracleRepeatedSources measures the cache on batch-shaped
// traffic: many destinations from few sources.
func BenchmarkOracleRepeatedSources(b *testing.B) {
	f := fault.Uniform{}.Generate(mesh.Square(100), 1500, rand.New(rand.NewSource(1)))
	r := rand.New(rand.NewSource(2))
	srcs := make([]mesh.Coord, 8)
	for i := range srcs {
		srcs[i] = mesh.C(r.Intn(100), r.Intn(100))
	}
	dsts := make([]mesh.Coord, 64)
	for i := range dsts {
		dsts[i] = mesh.C(r.Intn(100), r.Intn(100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOracle(f, 0)
		for j, d := range dsts {
			o.Dist(srcs[j%len(srcs)], d)
		}
	}
}

// BenchmarkDistancePerPair is the uncached baseline of
// BenchmarkOracleRepeatedSources: one full BFS per pair.
func BenchmarkDistancePerPair(b *testing.B) {
	f := fault.Uniform{}.Generate(mesh.Square(100), 1500, rand.New(rand.NewSource(1)))
	r := rand.New(rand.NewSource(2))
	srcs := make([]mesh.Coord, 8)
	for i := range srcs {
		srcs[i] = mesh.C(r.Intn(100), r.Intn(100))
	}
	dsts := make([]mesh.Coord, 64)
	for i := range dsts {
		dsts[i] = mesh.C(r.Intn(100), r.Intn(100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d := range dsts {
			Distance(f, srcs[j%len(srcs)], d)
		}
	}
}

// TestOracleStats locks the hit/miss accounting behind the serving
// layer's meshd_oracle_hits_total and meshd_oracle_misses_total: a fresh
// field is a miss, any query answered by a resident field (same source,
// symmetric endpoint, or Field reuse) is a hit.
func TestOracleStats(t *testing.T) {
	f := oracleFaults(t, 12, 0, 1)
	o := NewOracle(f, 0)
	if h, m := o.Stats(); h != 0 || m != 0 {
		t.Fatalf("fresh oracle stats = %d/%d, want 0/0", h, m)
	}
	s, d := mesh.C(1, 1), mesh.C(9, 9)
	o.Dist(s, d) // creates the s field
	if h, m := o.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first Dist: hits=%d misses=%d, want 0/1", h, m)
	}
	o.Dist(s, mesh.C(5, 5)) // d has no field; s is found via entryLocked
	o.Dist(d, s)            // symmetric: the s field answers as destination
	o.Field(s)              // resident field
	if h, m := o.Stats(); h != 3 || m != 1 {
		t.Fatalf("after reuse: hits=%d misses=%d, want 3/1", h, m)
	}
	o.Field(mesh.C(0, 0)) // new source
	if h, m := o.Stats(); h != 3 || m != 2 {
		t.Fatalf("after second source: hits=%d misses=%d, want 3/2", h, m)
	}
}
