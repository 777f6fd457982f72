// Package eval regenerates the paper's evaluation — every panel of
// Figure 5 — over the substrate packages. Each runner sweeps the number of
// uniformly random faults on an n x n mesh, keeps only connected
// configurations (the paper "only conduct[s] the test in the cases when the
// entire mesh is not disconnected"), and aggregates the per-trial
// quantities into the MAX and AVG series the figures plot.
//
// The runners return stats tables whose columns mirror the figure legends;
// cmd/meshfig renders them and bench_test.go wraps each one in a
// testing.B benchmark.
//
// Every runner takes a context and checks it between trials (and between
// routed pairs inside a trial): canceling the context abandons the sweep
// promptly and returns the cancellation alongside the partial table.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
	"repro/internal/stats"
)

// Config parameterizes a sweep. The zero value is not usable; start from
// Default or Quick.
type Config struct {
	// MeshSize is n for the n x n mesh (paper: 100).
	MeshSize int
	// FaultCounts are the sweep points (paper: 0..3000).
	FaultCounts []int
	// Trials is the number of random fault configurations per point.
	Trials int
	// Pairs is the number of routed source/destination pairs per
	// configuration (Figures 5(d)/(e)).
	Pairs int
	// Seed fixes all randomness.
	Seed int64
	// Policy is the adaptive selector for the routing algorithms.
	Policy routing.Policy
	// Border selects the labeling border policy (ablation; default safe).
	Border labeling.BorderPolicy
	// Workers bounds the goroutines sweeping trials; <= 0 means
	// GOMAXPROCS. Tables are byte-identical for every worker count: each
	// (sweep point, trial) draws from its own seed-derived RNG and the
	// emitted samples are merged back in serial order.
	Workers int
}

// Default reproduces the paper's scale: 100x100 mesh, faults 0..3000 in
// steps of 150.
func Default() Config {
	cfg := Config{MeshSize: 100, Trials: 10, Pairs: 20, Seed: 1}
	for n := 0; n <= 3000; n += 150 {
		cfg.FaultCounts = append(cfg.FaultCounts, n)
	}
	return cfg
}

// Quick is a laptop-friendly smoke configuration used by tests and
// benchmarks: same shape, smaller mesh, proportional fault counts.
func Quick() Config {
	cfg := Config{MeshSize: 40, Trials: 4, Pairs: 10, Seed: 1}
	// 40x40 = 16% of the paper's node count; scale the sweep accordingly
	// (0..480 faults keeps the same 0..30% density range).
	for n := 0; n <= 480; n += 60 {
		cfg.FaultCounts = append(cfg.FaultCounts, n)
	}
	return cfg
}

// rng derives a deterministic stream per (sweep point, trial).
func (c Config) rng(faults, trial int) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1_000_003 + int64(faults)*1_009 + int64(trial)))
}

// connectedSet draws a fault configuration for one trial. Requiring the
// *entire* surviving mesh to be one component is percolation-impossible
// above ~15% density (isolated 2x2 pockets appear almost surely), yet the
// paper sweeps to 30%; its "not disconnected" condition can only mean the
// routed pairs are connected, which the pair sampler enforces via the BFS
// oracle. Full-mesh connectivity is therefore only attempted at low
// densities and the draw is used regardless.
func (c Config) connectedSet(m mesh.Mesh, faults, trial int) (*fault.Set, *rand.Rand, bool) {
	r := c.rng(faults, trial)
	if faults*8 < m.Nodes() {
		if f, ok := fault.GenerateConnected(fault.Uniform{}, m, faults, r, 10); ok {
			return f, r, true
		}
	}
	return fault.Uniform{}.Generate(m, faults, r), r, true
}

// sample is one measurement a trial body emits: series index and value.
type sample struct {
	si int
	v  float64
}

// sweep runs body once per (fault count, trial) pair across cfg.Workers
// goroutines and replays every emitted sample into series in the serial
// sweep order. Each pair already owns a seed-derived RNG (Config.rng), so
// the bodies are order-independent, and the ordered replay makes the
// resulting tables byte-identical for every worker count — float
// accumulation happens in one fixed order.
//
// Workers check ctx between trials: on cancellation they stop claiming
// jobs, the completed trials' samples are still replayed (partial tables
// render), and the cancellation cause is returned.
func (c Config) sweep(ctx context.Context, series []*stats.Series, body func(n, trial int, emit func(si int, v float64))) error {
	type job struct{ n, trial int }
	jobs := make([]job, 0, len(c.FaultCounts)*c.Trials)
	for _, n := range c.FaultCounts {
		for trial := 0; trial < c.Trials; trial++ {
			jobs = append(jobs, job{n, trial})
		}
	}
	emitted := make([][]sample, len(jobs))
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				body(jobs[i].n, jobs[i].trial, func(si int, v float64) {
					emitted[i] = append(emitted[i], sample{si, v})
				})
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		for _, s := range emitted[i] {
			series[s.si].Add(j.n, s.v)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("eval: sweep canceled: %w", context.Cause(ctx))
	}
	return nil
}

// Fig5a measures the percentage of disabled (unsafe) area to the total
// area of the mesh: series MAX and AVG over trials per fault count.
func Fig5a(ctx context.Context, cfg Config) (*stats.Table, error) {
	series := stats.NewSeries("disabled%")
	m := mesh.Square(cfg.MeshSize)
	err := cfg.sweep(ctx, []*stats.Series{series}, func(n, trial int, emit func(int, float64)) {
		f, _, ok := cfg.connectedSet(m, n, trial)
		if !ok {
			return
		}
		g := labeling.Compute(f, cfg.Border)
		emit(0, 100*float64(g.UnsafeCount())/float64(m.Nodes()))
	})
	return &stats.Table{
		XLabel:  "faults",
		Columns: []stats.Column{{Series: series, Reduction: stats.Max}, {Series: series, Reduction: stats.Avg}},
	}, err
}

// Fig5b measures the number of MCCs per fault count (MAX and AVG).
func Fig5b(ctx context.Context, cfg Config) (*stats.Table, error) {
	series := stats.NewSeries("MCCs")
	m := mesh.Square(cfg.MeshSize)
	err := cfg.sweep(ctx, []*stats.Series{series}, func(n, trial int, emit func(int, float64)) {
		f, _, ok := cfg.connectedSet(m, n, trial)
		if !ok {
			return
		}
		set := mcc.Extract(labeling.Compute(f, cfg.Border))
		emit(0, float64(set.Len()))
	})
	return &stats.Table{
		XLabel:  "faults",
		Columns: []stats.Column{{Series: series, Reduction: stats.Max}, {Series: series, Reduction: stats.Avg}},
	}, err
}

// Fig5c measures the percentage of nodes involved in information
// propagation to the total safe nodes, for models B1, B2, and B3
// (MAX and AVG each).
func Fig5c(ctx context.Context, cfg Config) (*stats.Table, error) {
	models := []info.Model{info.B1, info.B2, info.B3}
	series := make([]*stats.Series, len(models))
	for i, mod := range models {
		series[i] = stats.NewSeries(mod.String())
	}
	m := mesh.Square(cfg.MeshSize)
	err := cfg.sweep(ctx, series, func(n, trial int, emit func(int, float64)) {
		f, _, ok := cfg.connectedSet(m, n, trial)
		if !ok {
			return
		}
		g := labeling.Compute(f, cfg.Border)
		if g.SafeCount() == 0 {
			return
		}
		set := mcc.Extract(g)
		for i, mod := range models {
			st := info.Build(mod, set)
			emit(i, 100*float64(st.Participants())/float64(g.SafeCount()))
		}
	})
	var cols []stats.Column
	for _, s := range series {
		cols = append(cols, stats.Column{Series: s, Reduction: stats.Max}, stats.Column{Series: s, Reduction: stats.Avg})
	}
	return &stats.Table{XLabel: "faults", Columns: cols}, err
}

// pairSampler draws random pairs matching the paper's setup: both
// endpoints safe (in the travel orientation), destination reachable.
// Ground-truth distances come from the trial's per-source BFS cache, so
// rejected draws and the final measurement share fields whenever
// endpoints repeat within a trial.
type pairSampler struct {
	m      mesh.Mesh
	a      *routing.Analysis
	r      *rand.Rand
	oracle *spath.Oracle
}

func (p pairSampler) draw() (s, d mesh.Coord, optimal int32, ok bool) {
	for attempt := 0; attempt < 200; attempt++ {
		s = mesh.C(p.r.Intn(p.m.Width()), p.r.Intn(p.m.Height()))
		d = mesh.C(p.r.Intn(p.m.Width()), p.r.Intn(p.m.Height()))
		if s == d {
			continue
		}
		o := mesh.OrientFor(s, d)
		g := p.a.Grid(o)
		if !g.Safe(o.To(p.m, s)) || !g.Safe(o.To(p.m, d)) {
			continue
		}
		optimal = p.oracle.Dist(s, d)
		if optimal >= spath.Infinite {
			continue
		}
		return s, d, optimal, true
	}
	return s, d, 0, false
}

// routedFigures runs the routing sweep shared by Figures 5(d) and 5(e),
// returning success-rate and relative-error series per algorithm. Trials
// run in parallel (Config.Workers); each trial builds its own analysis and
// RNG, so no routing state is shared across goroutines.
func routedFigures(ctx context.Context, cfg Config, algos []routing.Algo) (success, relerr, delivered map[routing.Algo]*stats.Series, err error) {
	success = map[routing.Algo]*stats.Series{}
	relerr = map[routing.Algo]*stats.Series{}
	delivered = map[routing.Algo]*stats.Series{}
	// Flat series layout for the sweep: per algorithm index ai, the series
	// indices are 3*ai (success), 3*ai+1 (relerr), 3*ai+2 (delivered).
	flat := make([]*stats.Series, 0, 3*len(algos))
	for _, al := range algos {
		success[al] = stats.NewSeries(al.String())
		relerr[al] = stats.NewSeries(al.String())
		delivered[al] = stats.NewSeries(al.String())
		flat = append(flat, success[al], relerr[al], delivered[al])
	}
	m := mesh.Square(cfg.MeshSize)
	// Walk scratches are pooled across trials: worker goroutines come and
	// go with the sweep, but the buffers (sized by the mesh) survive.
	var scratches sync.Pool
	err = cfg.sweep(ctx, flat, func(n, trial int, emit func(int, float64)) {
		f, r, ok := cfg.connectedSet(m, n, trial)
		if !ok {
			return
		}
		a := routing.NewAnalysisWithPolicy(f, cfg.Border)
		opt := routing.Options{Policy: cfg.Policy}
		if sc, ok := scratches.Get().(*routing.Scratch); ok {
			opt.Scratch = sc
		} else {
			opt.Scratch = routing.NewScratch(m)
		}
		defer scratches.Put(opt.Scratch)
		sampler := pairSampler{m: m, a: a, r: r, oracle: spath.NewOracle(f, 0)}
		for i := 0; i < cfg.Pairs; i++ {
			if ctx.Err() != nil {
				return // canceled mid-trial: stop between pairs
			}
			s, d, optimal, ok := sampler.draw()
			if !ok {
				break
			}
			for ai, al := range algos {
				res := routing.Route(a, al, s, d, opt)
				if !res.Delivered {
					// Undelivered: counts against the success rate and
					// the delivery series; excluded from path-length
					// averages (no length to compare).
					emit(3*ai, 0)
					emit(3*ai+2, 0)
					continue
				}
				emit(3*ai+2, 100)
				if int32(res.Hops) == optimal {
					emit(3*ai, 100)
				} else {
					emit(3*ai, 0)
				}
				if optimal > 0 {
					emit(3*ai+1, float64(res.Hops-int(optimal))/float64(optimal))
				}
			}
		}
	})
	return success, relerr, delivered, err
}

// Fig5d measures the percentage of routings that achieve the shortest path
// for RB1, RB2, and RB3.
func Fig5d(ctx context.Context, cfg Config) (*stats.Table, error) {
	success, _, _, err := routedFigures(ctx, cfg, []routing.Algo{routing.RB1, routing.RB2, routing.RB3})
	return &stats.Table{
		XLabel: "faults",
		Columns: []stats.Column{
			{Series: success[routing.RB1], Reduction: stats.Avg},
			{Series: success[routing.RB2], Reduction: stats.Avg},
			{Series: success[routing.RB3], Reduction: stats.Avg},
		},
	}, err
}

// Fig5e measures the relative error of the achieved path length to the
// shortest path for E-cube, RB1, RB2, and RB3.
func Fig5e(ctx context.Context, cfg Config) (*stats.Table, error) {
	algos := []routing.Algo{routing.Ecube, routing.RB1, routing.RB2, routing.RB3}
	_, relerr, _, err := routedFigures(ctx, cfg, algos)
	var cols []stats.Column
	for _, al := range algos {
		cols = append(cols, stats.Column{Series: relerr[al], Reduction: stats.Avg})
	}
	return &stats.Table{XLabel: "faults", Columns: cols, Digits: 4}, err
}

// DeliveryRates is an auxiliary panel (not in the paper) reporting the
// percentage of delivered walks per algorithm; the paper assumes delivery
// always succeeds, and this table quantifies how close the implementation
// comes (testdata/fig5_quick.golden records it at quick scale).
func DeliveryRates(ctx context.Context, cfg Config) (*stats.Table, error) {
	algos := []routing.Algo{routing.Ecube, routing.RB1, routing.RB2, routing.RB3}
	_, _, delivered, err := routedFigures(ctx, cfg, algos)
	var cols []stats.Column
	for _, al := range algos {
		cols = append(cols, stats.Column{Series: delivered[al], Reduction: stats.Avg})
	}
	return &stats.Table{XLabel: "faults", Columns: cols}, err
}
