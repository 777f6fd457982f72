// Benchmarks regenerating every panel of the paper's Figure 5 (the paper's
// entire evaluation; it has no numbered tables). Each benchmark runs the
// corresponding experiment at the Quick scale — same sweep shape as the
// paper's 100x100/0..3000 configuration, scaled to keep -bench runs in
// seconds — and reports the headline quantity alongside ns/op. cmd/meshfig
// regenerates the panels at the paper's full scale.
//
// Additional benchmarks cover the substrate hot paths (labeling, MCC
// extraction, information propagation, single routings) and an ablation of
// a choice the paper leaves open (the adaptive policy).
package meshroute

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
	"repro/internal/stats"
)

func lastAvg(tbl *stats.Table, col int, x int) float64 {
	acc := tbl.Columns[col].Series.At(x)
	if acc == nil {
		return -1
	}
	return acc.Avg()
}

func quickCfg() eval.Config { return eval.Quick() }

// BenchmarkFig5a regenerates Figure 5(a): percentage of disabled area.
func BenchmarkFig5a(b *testing.B) {
	cfg := quickCfg()
	last := cfg.FaultCounts[len(cfg.FaultCounts)-1]
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl, _ = eval.Fig5a(context.Background(), cfg)
	}
	b.ReportMetric(lastAvg(tbl, 1, last), "disabled%@max-faults")
}

// BenchmarkFig5b regenerates Figure 5(b): number of MCCs.
func BenchmarkFig5b(b *testing.B) {
	cfg := quickCfg()
	last := cfg.FaultCounts[len(cfg.FaultCounts)-1]
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl, _ = eval.Fig5b(context.Background(), cfg)
	}
	b.ReportMetric(lastAvg(tbl, 1, last), "MCCs@max-faults")
}

// BenchmarkFig5c regenerates Figure 5(c): propagation participants per
// information model.
func BenchmarkFig5c(b *testing.B) {
	cfg := quickCfg()
	last := cfg.FaultCounts[len(cfg.FaultCounts)-1]
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl, _ = eval.Fig5c(context.Background(), cfg)
	}
	b.ReportMetric(lastAvg(tbl, 3, last), "B2%@max-faults")
}

// BenchmarkFig5Routed runs the routed sweep behind Figures 5(d) and 5(e):
// shortest-path success rates and relative error vs the optimum.
func BenchmarkFig5Routed(b *testing.B) {
	cfg := quickCfg()
	last := cfg.FaultCounts[len(cfg.FaultCounts)-1]
	var routed *eval.Routed
	for i := 0; i < b.N; i++ {
		routed, _ = eval.Routing(context.Background(), cfg)
	}
	b.ReportMetric(lastAvg(routed.Fig5d(), 1, last), "RB2%@max-faults")
	b.ReportMetric(lastAvg(routed.Fig5e(), 0, last), "ecube-err@max-faults")
}

// --- substrate benchmarks ---

func benchFaults(n int) *fault.Set {
	m := mesh.Square(100)
	return fault.Uniform{}.Generate(m, n, rand.New(rand.NewSource(1)))
}

// benchFix is the shared routing fixture: one 100x100/1500-fault engine
// (B2 only — the RB2 benchmarks' model), built once per test binary. The
// expensive part is the B2 information stage (BenchmarkInfoB2, four
// orientations); before this fixture every routing benchmark rebuilt it
// per calibration invocation, which is how the seeded bench-json run
// spent 159s inside one benchmark.
var benchFix struct {
	once  sync.Once
	f     *fault.Set
	eng   *engine.Router
	pairs []engine.Pair // 64 uniform pairs
	hot   []engine.Pair // 64 pairs drawn from 8 repeated sources
}

func benchEngine(b *testing.B) {
	b.Helper()
	benchFix.once.Do(func() {
		benchFix.f = benchFaults(1500)
		benchFix.eng = engine.New(benchFix.f, engine.Options{Models: []info.Model{info.B2}})
		benchFix.pairs = benchPairs(benchFix.f, 64)
		r := rand.New(rand.NewSource(3))
		srcs := make([]mesh.Coord, 8)
		for i := range srcs {
			for {
				s := mesh.C(r.Intn(100), r.Intn(100))
				if !benchFix.f.Faulty(s) {
					srcs[i] = s
					break
				}
			}
		}
		benchFix.hot = make([]engine.Pair, 64)
		for i := range benchFix.hot {
			for {
				d := mesh.C(r.Intn(100), r.Intn(100))
				if !benchFix.f.Faulty(d) {
					benchFix.hot[i] = engine.Pair{S: srcs[i%len(srcs)], D: d}
					break
				}
			}
		}
	})
}

// BenchmarkLabeling100x100 measures the MCC labeling fixpoint at the
// paper's mesh scale and a mid-sweep density.
func BenchmarkLabeling100x100(b *testing.B) {
	f := benchFaults(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labeling.Compute(f)
	}
}

// BenchmarkDistributedLabeling measures the message-passing labeling engine.
func BenchmarkDistributedLabeling(b *testing.B) {
	m := mesh.Square(40)
	f := fault.Uniform{}.Generate(m, 240, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labeling.ComputeDistributed(f)
	}
}

// BenchmarkMCCExtract measures component extraction and indexing.
func BenchmarkMCCExtract(b *testing.B) {
	g := labeling.Compute(benchFaults(1500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcc.Extract(g)
	}
}

// BenchmarkInfoB2 measures the most expensive information model (boundary
// walks plus forbidden-region flood).
func BenchmarkInfoB2(b *testing.B) {
	set := mcc.Extract(labeling.Compute(benchFaults(1500)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info.Build(info.B2, set)
	}
}

// BenchmarkInfoRebuildB2 measures the B2 information stage of one commit
// on the same fixture: each op applies a 4-add/4-repair delta (the next op
// undoes it) through labeling.Update, mcc.UpdateSet and info.Rebuild in
// all four orientations, the chain routing.RebuildFrom runs per model.
func BenchmarkInfoRebuildB2(b *testing.B) {
	f := benchFaults(1500)
	m := f.Mesh()
	rng := rand.New(rand.NewSource(4))
	var adds, repairs []mesh.Coord
	seen := map[mesh.Coord]bool{}
	for len(adds) < 4 || len(repairs) < 4 {
		c := mesh.C(rng.Intn(m.Width()), rng.Intn(m.Height()))
		switch {
		case seen[c]:
		case f.Faulty(c) && len(repairs) < 4:
			repairs = append(repairs, c)
		case !f.Faulty(c) && len(adds) < 4:
			adds = append(adds, c)
		}
		seen[c] = true
	}
	// delta[i%2][o] holds op i's adds and repairs in o's canonical frame.
	var delta [2][mesh.NumOrients][2][]mesh.Coord
	var grids [mesh.NumOrients]*labeling.Grid
	var stores [mesh.NumOrients]*info.Store
	for o := mesh.Orient(0); o < mesh.NumOrients; o++ {
		for _, c := range adds {
			delta[0][o][0] = append(delta[0][o][0], o.To(m, c))
			delta[1][o][1] = append(delta[1][o][1], o.To(m, c))
		}
		for _, c := range repairs {
			delta[0][o][1] = append(delta[0][o][1], o.To(m, c))
			delta[1][o][0] = append(delta[1][o][0], o.To(m, c))
		}
		grids[o] = labeling.Compute(f.Mirror(o))
		stores[o] = info.Build(info.B2, mcc.Extract(grids[o]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for o := range grids {
			d := delta[i%2][o]
			res := labeling.Update(grids[o], d[0], d[1])
			set, carried := mcc.UpdateSet(stores[o].Set(), res.Grid, res.UnsafeFlipped)
			grids[o], stores[o] = res.Grid, info.Rebuild(stores[o], set, carried, res.UnsafeFlipped)
		}
	}
}

// BenchmarkRouteRB2 measures one full RB2 routing on a 100x100 mesh with
// 1500 faults (analysis cached, as in a deployed system). Each call
// borrows a scratch from the engine's pool, as every served walk does.
func BenchmarkRouteRB2(b *testing.B) {
	benchEngine(b)
	snap := benchFix.eng.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchFix.pairs[i%len(benchFix.pairs)]
		snap.Route(routing.RB2, p.S, p.D, routing.Options{})
	}
}

// BenchmarkRouteRB2Scratch is BenchmarkRouteRB2 with one caller-owned
// scratch reused across the pair cycle, as a pinned batch worker routes.
// Walks that plan detours allocate nothing too: the finder writes every
// certified blocking chain into one of the scratch's sequence buffers.
// On a 2-CPU x86-64 Linux VM it reads 0 allocs/op at -benchtime 640x; its
// ~1.3 KB/op is the scratch's plan tables and sequence buffers growing
// during the first pass over the pairs.
func BenchmarkRouteRB2Scratch(b *testing.B) {
	benchEngine(b)
	a := benchFix.eng.Snapshot().Analysis()
	sc := routing.NewScratch(a.Mesh())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchFix.pairs[i%len(benchFix.pairs)]
		routing.Route(a, routing.RB2, p.S, p.D, routing.Options{Scratch: sc})
	}
}

// benchPairs samples routable (non-faulty endpoint) pairs for the RB2
// routing benchmarks.
func benchPairs(f *fault.Set, count int) []engine.Pair {
	r := rand.New(rand.NewSource(2))
	pairs := make([]engine.Pair, count)
	for i := range pairs {
		for {
			s := mesh.C(r.Intn(100), r.Intn(100))
			d := mesh.C(r.Intn(100), r.Intn(100))
			if !f.Faulty(s) && !f.Faulty(d) {
				pairs[i] = engine.Pair{S: s, D: d}
				break
			}
		}
	}
	return pairs
}

// BenchmarkRouteRB2Parallel measures aggregate RB2 routing throughput when
// every GOMAXPROCS-th goroutine routes concurrently against one shared
// engine snapshot — the concurrent-engine counterpart of
// BenchmarkRouteRB2. routes/sec here versus the serial benchmark is the
// engine's scaling headline (≥ 2x expected on a multi-core runner).
func BenchmarkRouteRB2Parallel(b *testing.B) {
	benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := benchFix.pairs[i%len(benchFix.pairs)]
			i++
			benchFix.eng.Snapshot().Route(routing.RB2, p.S, p.D, routing.Options{})
		}
	})
}

// BenchmarkRouteBatchRB2 measures the engine batch end to end: one
// BatchStream fanning 64 pairs across the default worker pool, drained
// to the last item.
func BenchmarkRouteBatchRB2(b *testing.B) {
	benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range benchFix.eng.Snapshot().BatchStream(context.Background(), routing.RB2, benchFix.pairs, 0, routing.Options{}) {
		}
	}
}

// BenchmarkRouteBatchOracleRB2 measures oracle-enabled batch serving on
// repeated-source traffic: the batch fans out on the snapshot and every
// result is scored against the snapshot's distance-oracle cache, the way
// the facade's RouteBatch does. Eight sources share 64 pairs, so
// the cache turns 64 per-pair BFS runs into 8 field builds.
func BenchmarkRouteBatchOracleRB2(b *testing.B) {
	benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := benchFix.eng.Snapshot()
		oracle := spath.NewOracle(snap.Faults(), 0) // cold cache per batch: worst case
		for item := range snap.BatchStream(context.Background(), routing.RB2, benchFix.hot, 0, routing.Options{}) {
			if item.Err == nil {
				oracle.Dist(item.Pair.S, item.Pair.D)
			}
		}
	}
}

// BenchmarkRouteBatchOracleUncachedRB2 is the pre-cache baseline of
// BenchmarkRouteBatchOracleRB2: one full BFS per routed pair, as
// spath.Distance did before the snapshot oracle existed.
func BenchmarkRouteBatchOracleUncachedRB2(b *testing.B) {
	benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := benchFix.eng.Snapshot()
		for item := range snap.BatchStream(context.Background(), routing.RB2, benchFix.hot, 0, routing.Options{}) {
			if item.Err == nil {
				spath.Distance(snap.Faults(), item.Pair.S, item.Pair.D)
			}
		}
	}
}

// --- ablation benchmark (a choice the paper leaves open) ---

// BenchmarkAblationPolicies compares adaptive selectors on the Figure 5(d)
// success metric. Measured: diagonal balancing far outperforms the extreme
// selectors at high density (see Policy docs) — the paper's "any fully
// adaptive routing" hides a real design choice.
func BenchmarkAblationPolicies(b *testing.B) {
	for _, p := range []routing.Policy{routing.PolicyDiagonal, routing.PolicyXFirst, routing.PolicyYFirst} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := quickCfg()
			cfg.FaultCounts = []int{240}
			cfg.Policy = p
			var routed *eval.Routed
			for i := 0; i < b.N; i++ {
				routed, _ = eval.Routing(context.Background(), cfg)
			}
			b.ReportMetric(lastAvg(routed.Fig5d(), 1, 240), "RB2%")
		})
	}
}

// applyFix is the fault-commit fixture: a 1000x1000 mesh with 256
// background faults — the commit-latency scale from ROADMAP item 2 —
// plus a 4-cell delta clear of the background set. Built once per test
// binary and shared by the Apply benchmarks, which measure what one
// committed fault transaction costs on the incremental path versus the
// full-precompute path it replaced.
var applyFix struct {
	once  sync.Once
	f     *fault.Set
	delta []mesh.Coord
}

func applyFixture(b *testing.B) {
	b.Helper()
	applyFix.once.Do(func() {
		m := mesh.New(1000, 1000)
		applyFix.f = fault.Uniform{}.Generate(m, 256, rand.New(rand.NewSource(2)))
		rng := rand.New(rand.NewSource(3))
		seen := make(map[mesh.Coord]bool)
		for len(applyFix.delta) < 4 {
			c := mesh.C(rng.Intn(1000), rng.Intn(1000))
			if !applyFix.f.Faulty(c) && !seen[c] {
				seen[c] = true
				applyFix.delta = append(applyFix.delta, c)
			}
		}
	})
}

// BenchmarkApplySmallDelta measures one committed 4-fault transaction on
// the delta-scoped rebuild path: alternate iterations add and repair the
// same 4 cells, so every Swap sees a 4-cell delta against the published
// snapshot.
func BenchmarkApplySmallDelta(b *testing.B) {
	applyFixture(b)
	f := applyFix.f.Clone()
	r := engine.New(f, engine.Options{Models: []info.Model{info.B2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range applyFix.delta {
			if i%2 == 0 {
				f.Add(c)
			} else {
				f.Remove(c)
			}
		}
		r.Swap(f)
	}
	b.StopTimer()
	if st := r.RebuildStats(); st.FullBuilds != 0 {
		b.Fatalf("4-cell deltas must stay on the incremental path: %+v", st)
	}
}

// BenchmarkApplyFullRebuild measures the same 4-fault commit paid as a
// from-scratch snapshot build — the pre-incremental cost of every
// transaction, kept as the bench-compare baseline for the ratio.
func BenchmarkApplyFullRebuild(b *testing.B) {
	applyFixture(b)
	f := applyFix.f.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range applyFix.delta {
			if i%2 == 0 {
				f.Add(c)
			} else {
				f.Remove(c)
			}
		}
		engine.NewSnapshot(f, engine.Options{Models: []info.Model{info.B2}})
	}
}
