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
// order (component ID and kind), both relation tables in order, the
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
			put(int64(t.F.ID)<<8 | int64(t.Kind))
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
// functions that share their construction code; these values, recorded
// on an earlier implementation, pin that code's output itself. A change
// of the propagation's output must come with new values.
var goldenDigests = map[string]string{
	"B1/NE/build": "ae7a13e77320e3e5",
	"B1/NE/churn": "8257999559be1fcc",
	"B1/NE/setup": "ae7a13e77320e3e5",
	"B1/NW/build": "988ca4ac4a4977ff",
	"B1/NW/churn": "d0cbd00ddc4b5bb1",
	"B1/NW/setup": "988ca4ac4a4977ff",
	"B1/SE/build": "73864ba861ef77b9",
	"B1/SE/churn": "246c29f88efcd747",
	"B1/SE/setup": "73864ba861ef77b9",
	"B1/SW/build": "4e386f0944f3ab59",
	"B1/SW/churn": "814099d8f4fa29fd",
	"B1/SW/setup": "4e386f0944f3ab59",
	"B2/NE/build": "56c9d6570cb67cf2",
	"B2/NE/churn": "75fab3041c386c06",
	"B2/NE/setup": "56c9d6570cb67cf2",
	"B2/NW/build": "cd9dea43e07be662",
	"B2/NW/churn": "4159ba8d83192dcf",
	"B2/NW/setup": "cd9dea43e07be662",
	"B2/SE/build": "a687bbe658f452f1",
	"B2/SE/churn": "67593e1bae136d24",
	"B2/SE/setup": "a687bbe658f452f1",
	"B2/SW/build": "d02f05c31e8febe7",
	"B2/SW/churn": "da710aee4db495ca",
	"B2/SW/setup": "d02f05c31e8febe7",
	"B3/NE/build": "3ef6048a47741220",
	"B3/NE/churn": "37383eb9c7bfe075",
	"B3/NE/setup": "3ef6048a47741220",
	"B3/NW/build": "c4dd181a6ad93d57",
	"B3/NW/churn": "276319ad02f3db16",
	"B3/NW/setup": "c4dd181a6ad93d57",
	"B3/SE/build": "917b07c9602d7ba8",
	"B3/SE/churn": "c49dba8862f5ab9e",
	"B3/SE/setup": "917b07c9602d7ba8",
	"B3/SW/build": "23e708a2b9c77feb",
	"B3/SW/churn": "81eaa7b27e782184",
	"B3/SW/setup": "23e708a2b9c77feb",
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

func TestGoldenStoreDigests(t *testing.T) {
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
				k := model.String() + "/" + o.String() + "/" + state
				if got, want := storeDigest(st), goldenDigests[k]; got != want {
					t.Errorf("%s: digest %s, want %s", k, got, want)
				}
			}
			grid := labeling.Compute(base.Mirror(o), labeling.BorderSafe)
			st := Build(model, mcc.Extract(grid))
			check("build", st)
			for k := range adds {
				st, grid = rebuildStep(st, grid, orient(m, o, adds[k]), orient(m, o, repairs[k]))
			}
			check("churn", st)

			empty := labeling.Compute(fault.NewSet(m), labeling.BorderSafe)
			st, _ = rebuildStep(Build(model, mcc.Extract(empty)), empty, orient(m, o, base.Coords()), nil)
			check("setup", st)
		}
	}
}
