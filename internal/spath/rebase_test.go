package spath

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// applyDelta mutates a clone of f by the given delta and returns it.
func applyDelta(f *fault.Set, adds, repairs []mesh.Coord) *fault.Set {
	next := f.Clone()
	for _, c := range adds {
		next.Add(c)
	}
	for _, c := range repairs {
		next.Remove(c)
	}
	return next
}

// TestRebaseCorrect drives random fault sequences and checks that every
// answer a rebased oracle serves matches a from-scratch Distance over the
// new fault set.
func TestRebaseCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e8a))
	for trial := 0; trial < 20; trial++ {
		w, h := 5+rng.Intn(10), 5+rng.Intn(10)
		m := mesh.New(w, h)
		f := fault.NewSet(m)
		for n := rng.Intn(8); n > 0; n-- {
			f.Add(mesh.C(rng.Intn(w), rng.Intn(h)))
		}
		o := NewOracle(f, 64)
		for step := 0; step < 6; step++ {
			// Warm a handful of fields.
			for q := 0; q < 10; q++ {
				o.Field(mesh.C(rng.Intn(w), rng.Intn(h)))
			}
			var adds, repairs []mesh.Coord
			for n := 1 + rng.Intn(3); n > 0; n-- {
				c := mesh.C(rng.Intn(w), rng.Intn(h))
				if f.Faulty(c) {
					repairs = append(repairs, c)
				} else {
					adds = append(adds, c)
				}
			}
			f = applyDelta(f, adds, repairs)
			o, _ = o.Rebase(f, adds, repairs)
			for q := 0; q < 40; q++ {
				s := mesh.C(rng.Intn(w), rng.Intn(h))
				d := mesh.C(rng.Intn(w), rng.Intn(h))
				if got, want := o.Dist(s, d), Distance(f, s, d); got != want {
					t.Fatalf("trial %d step %d: Dist(%v,%v)=%d, want %d (adds=%v repairs=%v)",
						trial, step, s, d, got, want, adds, repairs)
				}
			}
		}
	}
}

// TestRebaseSharesCounters checks the monotone hit-rate contract: a
// rebased generation starts empty and accumulates into the same counters.
func TestRebaseSharesCounters(t *testing.T) {
	m := mesh.New(6, 6)
	f := fault.NewSet(m)
	o := NewOracle(f, 8)
	o.Field(mesh.C(0, 0))
	o.Field(mesh.C(0, 0))
	adds := []mesh.Coord{mesh.C(5, 5)}
	next := applyDelta(f, adds, nil)
	reb, carried := o.Rebase(next, adds, nil)
	if carried != 0 || reb.Len() != 0 {
		t.Fatalf("rebased oracle holds %d fields (carried %d), want an empty cache", reb.Len(), carried)
	}
	reb.Field(mesh.C(1, 1))
	gh, gm := reb.Stats()
	if gh != 1 || gm != 2 {
		t.Fatalf("shared counters: hits=%d misses=%d, want 1/2", gh, gm)
	}
}

// TestOracleRingEviction fills past the bound repeatedly and checks the
// cache stays bounded with FIFO behavior under churn.
func TestOracleRingEviction(t *testing.T) {
	m := mesh.New(16, 16)
	f := fault.NewSet(m)
	o := NewOracle(f, 4)
	for i := 0; i < 40; i++ {
		o.Field(m.CoordOf(i))
		if o.Len() > 4 {
			t.Fatalf("cache exceeded bound: %d", o.Len())
		}
	}
	// The four most recent sources remain resident: querying them again
	// must be all hits.
	h0, _ := o.Stats()
	for i := 36; i < 40; i++ {
		o.Field(m.CoordOf(i))
	}
	h1, _ := o.Stats()
	if h1-h0 != 4 {
		t.Fatalf("recent sources evicted: got %d hits, want 4", h1-h0)
	}
}

// TestOracleEvictionSkipsFilling checks that an entry still filling is
// rotated past rather than evicted.
func TestOracleEvictionSkipsFilling(t *testing.T) {
	m := mesh.New(8, 8)
	f := fault.NewSet(m)
	o := NewOracle(f, 2)

	// Manually stage a filling entry at the ring head.
	o.mu.Lock()
	e0 := &oracleField{} // never filled: done stays false
	o.fields[0] = e0
	o.pushLocked(0)
	o.mu.Unlock()

	o.Field(m.CoordOf(1)) // fills normally
	o.Field(m.CoordOf(2)) // triggers eviction; must evict 1, not 0
	o.mu.Lock()
	_, still := o.fields[0]
	_, one := o.fields[1]
	o.mu.Unlock()
	if !still {
		t.Fatalf("filling entry was evicted")
	}
	if one {
		t.Fatalf("completed entry should have been evicted instead")
	}
}
