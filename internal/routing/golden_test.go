package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// putResult feeds every field of one routing result into h.
func putResult(h hash.Hash, res Result) {
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	flag := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	put(int64(len(res.Path)))
	for _, c := range res.Path {
		put(int64(c.X)<<32 | int64(c.Y))
	}
	put(flag(res.Delivered))
	put(int64(res.Hops))
	put(int64(res.Phases))
	put(int64(res.DetourHops))
	put(int64(res.WallFlips))
	put(flag(res.Downgraded))
	put(int64(len(res.Abort)))
	h.Write([]byte(res.Abort))
}

// goldenRoutes pins the digest of every result of each algorithm on the
// benchmark fixture (100x100, 1500 uniform faults, seed 1),
// over the first 64 and all 512 of its pairs (non-faulty endpoints,
// seed 2). A change to what the router returns must come with new values.
var goldenRoutes = map[string]string{
	"E-cube/64":  "aac67889ec7ccd47",
	"E-cube/512": "6c6215c26e6230f5",
	"RB1/64":     "bbfbe1b199ef557c",
	"RB1/512":    "929fce19068880d3",
	"RB2/64":     "bfac88e0db210062",
	"RB2/512":    "df2935bbbea3886f",
	"RB3/64":     "9290ead21f288e0f",
	"RB3/512":    "ea3fe7d8e40d3cd2",
}

func TestGoldenRouteDigests(t *testing.T) {
	m := mesh.Square(100)
	f := fault.Uniform{}.Generate(m, 1500, rand.New(rand.NewSource(1)))
	a := NewAnalysis(f)
	r := rand.New(rand.NewSource(2))
	pairs := make([][2]mesh.Coord, 512)
	for i := range pairs {
		for {
			s, d := mesh.C(r.Intn(100), r.Intn(100)), mesh.C(r.Intn(100), r.Intn(100))
			if !f.Faulty(s) && !f.Faulty(d) {
				pairs[i] = [2]mesh.Coord{s, d}
				break
			}
		}
	}
	checkpoints := []int{64, 512}
	if testing.Short() {
		checkpoints = checkpoints[:1]
	}
	sc := NewScratch(m)
	for _, algo := range allAlgos {
		h := sha256.New()
		next := 0
		for _, n := range checkpoints {
			for ; next < n; next++ {
				putResult(h, Route(a, algo, pairs[next][0], pairs[next][1], Options{Scratch: sc}))
			}
			k := algo.String() + "/" + strconv.Itoa(n)
			if got, want := hex.EncodeToString(h.Sum(nil)[:8]), goldenRoutes[k]; got != want {
				t.Errorf("%s: digest %s, want %s", k, got, want)
			}
		}
	}
}
