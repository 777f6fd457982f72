package info

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
)

// storeDigest hashes everything a store exposes: each node's triples in
// order (component ID and axis), both relation tables in order, the
// participant count and the message count.
func storeDigest(s *Store) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(s.Participants()))
	put(s.Messages())
	m := s.Set().Grid().Mesh()
	for idx := 0; idx < m.Nodes(); idx++ {
		ts := s.TriplesAt(m.CoordOf(idx))
		put(int64(len(ts)))
		for _, t := range ts {
			put(int64(t.F.ID)<<8 | int64(t.Axis))
		}
	}
	for _, f := range s.Set().All() {
		for _, a := range mcc.Axes {
			succ := s.Successors(a, f)
			put(int64(len(succ)))
			for _, g := range succ {
				put(int64(g.ID))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenDigests pins storeDigest on the benchmark fixture (100x100,
// 1500 uniform faults, seed 1) for every model and orientation, in three
// states: after Build, after a three-delta churn chain of Rebuilds, and
// after one Rebuild from the fault-free store (a new mesh receiving its
// whole fault set as one delta). TestRebuildMatchesBuild compares two
// functions that share their construction code; these values pin that
// code's output itself. They were computed from an earlier
// implementation's stores, which tagged each triple with the boundary
// that carried it, projected to the first triple per component and axis
// at each node. A change of the propagation's output must come with new
// values.
var goldenDigests = map[string]string{
	"B1/NE/build": "8f056c549711b4e0",
	"B1/NE/churn": "eb5a8265562f3d0c",
	"B1/NE/setup": "8f056c549711b4e0",
	"B1/NW/build": "78721274eb6ae774",
	"B1/NW/churn": "4e6aa84fb3b85c47",
	"B1/NW/setup": "78721274eb6ae774",
	"B1/SE/build": "2125f979b3124d7a",
	"B1/SE/churn": "3d4b78a241cdccf5",
	"B1/SE/setup": "2125f979b3124d7a",
	"B1/SW/build": "082024c0ea73d602",
	"B1/SW/churn": "0894ad97111d08b0",
	"B1/SW/setup": "082024c0ea73d602",
	"B2/NE/build": "957fac8d65603b04",
	"B2/NE/churn": "3d54f2ad44a2ae0a",
	"B2/NE/setup": "957fac8d65603b04",
	"B2/NW/build": "966fa146535761ee",
	"B2/NW/churn": "50968854c405b3eb",
	"B2/NW/setup": "966fa146535761ee",
	"B2/SE/build": "39abdd86838b972c",
	"B2/SE/churn": "4033d9d748a009a5",
	"B2/SE/setup": "39abdd86838b972c",
	"B2/SW/build": "ff62f479e64b06cf",
	"B2/SW/churn": "090cec61602c836f",
	"B2/SW/setup": "ff62f479e64b06cf",
	"B3/NE/build": "bd84ea938de5611f",
	"B3/NE/churn": "93c54fdc8d16de6f",
	"B3/NE/setup": "bd84ea938de5611f",
	"B3/NW/build": "3af9d241729187ca",
	"B3/NW/churn": "d96c759bc4b42124",
	"B3/NW/setup": "3af9d241729187ca",
	"B3/SE/build": "bef68b9306bb85d7",
	"B3/SE/churn": "7996e5c7444f986b",
	"B3/SE/setup": "bef68b9306bb85d7",
	"B3/SW/build": "61386a884c703a5e",
	"B3/SW/churn": "855745018c417fbe",
	"B3/SW/setup": "61386a884c703a5e",
}

// goldenChurn returns three deltas of 4 adds and 4 repairs each against
// f, applying them to f as it goes (original frame).
func goldenChurn(f *fault.Set) (adds, repairs [3][]mesh.Coord) {
	m := f.Mesh()
	rng := rand.New(rand.NewSource(11))
	for k := range adds {
		seen := map[mesh.Coord]bool{}
		for len(adds[k]) < 4 || len(repairs[k]) < 4 {
			c := mesh.C(rng.Intn(m.Width()), rng.Intn(m.Height()))
			if seen[c] {
				continue
			}
			switch {
			case f.Faulty(c) && len(repairs[k]) < 4:
				repairs[k] = append(repairs[k], c)
			case !f.Faulty(c) && len(adds[k]) < 4:
				adds[k] = append(adds[k], c)
			default:
				continue
			}
			seen[c] = true
		}
		for _, c := range adds[k] {
			f.Add(c)
		}
		for _, c := range repairs[k] {
			f.Remove(c)
		}
	}
	return adds, repairs
}

func orient(m mesh.Mesh, o mesh.Orient, cs []mesh.Coord) []mesh.Coord {
	out := make([]mesh.Coord, len(cs))
	for i, c := range cs {
		out[i] = o.To(m, c)
	}
	return out
}

// rebuildStep runs one delta through the incremental chain.
func rebuildStep(st *Store, grid *labeling.Grid, adds, repairs []mesh.Coord) (*Store, *labeling.Grid) {
	res := labeling.Update(grid, adds, repairs)
	set, carried := mcc.UpdateSet(st.Set(), res.Grid, res.UnsafeFlipped)
	return Rebuild(st, set, carried, res.UnsafeFlipped), res.Grid
}

// eachFixtureStore builds the goldenDigests stores one at a time and
// hands each to check under its key; -short keeps the NE orientation.
func eachFixtureStore(check func(key string, st *Store)) {
	m := mesh.Square(100)
	base := fault.Uniform{}.Generate(m, 1500, rand.New(rand.NewSource(1)))
	adds, repairs := goldenChurn(base.Clone())
	orients := []mesh.Orient{mesh.NE, mesh.NW, mesh.SE, mesh.SW}
	if testing.Short() {
		orients = orients[:1]
	}
	for _, model := range []Model{B1, B2, B3} {
		for _, o := range orients {
			check := func(state string, st *Store) {
				check(model.String()+"/"+o.String()+"/"+state, st)
			}
			grid := labeling.Compute(base.Mirror(o))
			st := Build(model, mcc.Extract(grid))
			check("build", st)
			for k := range adds {
				st, grid = rebuildStep(st, grid, orient(m, o, adds[k]), orient(m, o, repairs[k]))
			}
			check("churn", st)

			empty := labeling.Compute(fault.NewSet(m))
			st, _ = rebuildStep(Build(model, mcc.Extract(empty)), empty, orient(m, o, base.Coords()), nil)
			check("setup", st)
		}
	}
}

func TestGoldenStoreDigests(t *testing.T) {
	eachFixtureStore(func(key string, st *Store) {
		if got, want := storeDigest(st), goldenDigests[key]; got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
	})
}

// TestOneTriplePerComponentAxis checks the paper's duplicate rule on every
// fixture store: a node holds at most one triple per component and axis,
// however many boundaries and floods of that component reach it.
func TestOneTriplePerComponentAxis(t *testing.T) {
	eachFixtureStore(func(key string, st *Store) { checkOneTriplePerAxis(t, key, st) })
}
