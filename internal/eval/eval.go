// Package eval regenerates the paper's evaluation — every panel of
// Figure 5 — over the substrate packages. Each runner sweeps the number of
// random faults on an n x n mesh and aggregates the per-trial quantities
// into the MAX and AVG series the figures plot. The paper "only
// conduct[s] the test in the cases when the entire mesh is not
// disconnected"; connectedSet explains why that can only mean the routed
// pairs are connected.
//
// Figures 5(a)-(c) each have a cheap runner of their own. Figures 5(d),
// 5(e) and the delivery table come from one simulation, the same random
// pairs routed by E-cube, RB1, RB2 and RB3 and compared with the BFS
// optimum: Routing runs it once and the three tables are views of its
// result. cmd/meshfig renders the tables, cmd/meshsim prints one sweep
// point of the routed sweep, and bench_test.go wraps the runners in
// testing.B benchmarks.
//
// Every runner takes a context and checks it between trials (and between
// routed pairs inside a trial): canceling the context abandons the sweep
// promptly and returns the cancellation alongside the partial result.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
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
	// Gen draws each trial's faults; nil means fault.Uniform{}, the
	// paper's workload.
	Gen fault.Generator
	// Policy is the adaptive selector for the routing algorithms.
	Policy routing.Policy
	// Workers bounds the goroutines sweeping trials; <= 0 means
	// GOMAXPROCS, and larger values are capped at GOMAXPROCS: each
	// in-flight trial holds its own engine snapshot, so a worker beyond
	// the cores adds memory, never speed. Tables are byte-identical for
	// every worker count: each (sweep point, trial) draws from its own
	// seed-derived RNG and the emitted samples are merged back in serial
	// order.
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
func (c Config) connectedSet(m mesh.Mesh, faults, trial int) (*fault.Set, *rand.Rand) {
	gen := c.Gen
	if gen == nil {
		gen = fault.Uniform{}
	}
	r := c.rng(faults, trial)
	if faults*8 < m.Nodes() {
		if f, ok := fault.GenerateConnected(gen, m, faults, r, 10); ok {
			return f, r
		}
	}
	return gen.Generate(m, faults, r), r
}

// sample is one measurement a trial body emits: its series and value.
type sample struct {
	s *stats.Series
	v float64
}

// sweep runs body once per (fault count, trial) pair across cfg.Workers
// goroutines and replays every emitted sample into its series in the
// serial sweep order. Each pair already owns a seed-derived RNG
// (Config.rng), so the bodies are order-independent, and the ordered
// replay makes the resulting tables byte-identical for every worker count
// — float accumulation happens in one fixed order.
//
// Workers check ctx between trials: on cancellation they stop claiming
// jobs, the completed trials' samples are still replayed (partial tables
// render), and the cancellation cause is returned.
func (c Config) sweep(ctx context.Context, body func(n, trial int, emit func(*stats.Series, float64))) error {
	type job struct{ n, trial int }
	jobs := make([]job, 0, len(c.FaultCounts)*c.Trials)
	for _, n := range c.FaultCounts {
		for trial := 0; trial < c.Trials; trial++ {
			jobs = append(jobs, job{n, trial})
		}
	}
	emitted := make([][]sample, len(jobs))
	workers := c.Workers
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
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
				body(jobs[i].n, jobs[i].trial, func(s *stats.Series, v float64) {
					emitted[i] = append(emitted[i], sample{s, v})
				})
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		for _, s := range emitted[i] {
			s.s.Add(j.n, s.v)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("eval: sweep canceled: %w", context.Cause(ctx))
	}
	return nil
}

// maxAvg tables the MAX and AVG of each series, the two the paper plots.
func maxAvg(series ...*stats.Series) *stats.Table {
	t := &stats.Table{XLabel: "faults"}
	for _, s := range series {
		t.Columns = append(t.Columns, stats.Column{Series: s, Reduction: stats.Max}, stats.Column{Series: s, Reduction: stats.Avg})
	}
	return t
}

// Fig5a measures the percentage of disabled (unsafe) area to the total
// area of the mesh: series MAX and AVG over trials per fault count.
func Fig5a(ctx context.Context, cfg Config) (*stats.Table, error) {
	series := stats.NewSeries("disabled%")
	m := mesh.Square(cfg.MeshSize)
	err := cfg.sweep(ctx, func(n, trial int, emit func(*stats.Series, float64)) {
		f, _ := cfg.connectedSet(m, n, trial)
		g := labeling.Compute(f)
		emit(series, 100*float64(g.UnsafeCount())/float64(m.Nodes()))
	})
	return maxAvg(series), err
}

// Fig5b measures the number of MCCs per fault count (MAX and AVG).
func Fig5b(ctx context.Context, cfg Config) (*stats.Table, error) {
	series := stats.NewSeries("MCCs")
	m := mesh.Square(cfg.MeshSize)
	err := cfg.sweep(ctx, func(n, trial int, emit func(*stats.Series, float64)) {
		f, _ := cfg.connectedSet(m, n, trial)
		set := mcc.Extract(labeling.Compute(f))
		emit(series, float64(set.Len()))
	})
	return maxAvg(series), err
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
	err := cfg.sweep(ctx, func(n, trial int, emit func(*stats.Series, float64)) {
		f, _ := cfg.connectedSet(m, n, trial)
		g := labeling.Compute(f)
		if g.SafeCount() == 0 {
			return
		}
		set := mcc.Extract(g)
		for i, mod := range models {
			st := info.Build(mod, set)
			emit(series[i], 100*float64(st.Participants())/float64(g.SafeCount()))
		}
	})
	return maxAvg(series...), err
}

// pairSampler draws random pairs matching the paper's setup: both
// endpoints safe (in the travel orientation), destination reachable.
// Ground-truth distances come from the trial snapshot's per-source BFS
// cache, so rejected draws and the final measurement share fields
// whenever endpoints repeat within a trial.
type pairSampler struct {
	m    mesh.Mesh
	snap *engine.Snapshot
	r    *rand.Rand
}

func (p pairSampler) draw() (s, d mesh.Coord, optimal int32, ok bool) {
	for attempt := 0; attempt < 200; attempt++ {
		s = mesh.C(p.r.Intn(p.m.Width()), p.r.Intn(p.m.Height()))
		d = mesh.C(p.r.Intn(p.m.Width()), p.r.Intn(p.m.Height()))
		if s == d {
			continue
		}
		o := mesh.OrientFor(s, d)
		g := p.snap.Analysis().Grid(o)
		if !g.Safe(o.To(p.m, s)) || !g.Safe(o.To(p.m, d)) {
			continue
		}
		optimal = p.snap.Oracle().Dist(s, d)
		if optimal >= spath.Infinite {
			continue
		}
		return s, d, optimal, true
	}
	return s, d, 0, false
}

// Outcomes holds one algorithm's series from the routed sweep, each keyed
// by fault count.
type Outcomes struct {
	Algo routing.Algo
	// Shortest gets 100 per pair routed in the BFS-optimal number of hops
	// and 0 per other pair, undelivered ones included.
	Shortest *stats.Series
	// RelErr gets (hops - optimal) / optimal per delivered pair.
	RelErr *stats.Series
	// Delivered gets 100 per delivered walk and 0 per undelivered one.
	Delivered *stats.Series
	// Hops and Detours get each delivered walk's hop count and the hops
	// it took in wall-following detour mode.
	Hops, Detours *stats.Series
}

// Routed is the result of the routed sweep: one Outcomes per algorithm,
// E-cube, RB1, RB2 and RB3 in that order, all measured on the same pairs.
type Routed struct {
	Algos []Outcomes
}

// Routing runs the routed sweep behind Figures 5(d) and 5(e) and the
// delivery table. Each trial draws a fault set, builds one engine
// snapshot of it, samples Config.Pairs pairs with pairSampler, and routes
// every pair under all four algorithms with Snapshot.Route. Trials run in
// parallel (Config.Workers); each owns its snapshot and RNG, so no
// routing state is shared across goroutines.
func Routing(ctx context.Context, cfg Config) (*Routed, error) {
	out := &Routed{}
	for _, al := range []routing.Algo{routing.Ecube, routing.RB1, routing.RB2, routing.RB3} {
		name := al.String()
		out.Algos = append(out.Algos, Outcomes{
			Algo:     al,
			Shortest: stats.NewSeries(name), RelErr: stats.NewSeries(name), Delivered: stats.NewSeries(name),
			Hops: stats.NewSeries(name), Detours: stats.NewSeries(name),
		})
	}
	m := mesh.Square(cfg.MeshSize)
	opt := routing.Options{Policy: cfg.Policy}
	err := cfg.sweep(ctx, func(n, trial int, emit func(*stats.Series, float64)) {
		f, r := cfg.connectedSet(m, n, trial)
		snap := engine.NewSnapshot(f, engine.Options{})
		sampler := pairSampler{m: m, snap: snap, r: r}
		for i := 0; i < cfg.Pairs; i++ {
			if ctx.Err() != nil {
				return // canceled mid-trial: stop between pairs
			}
			s, d, optimal, ok := sampler.draw()
			if !ok {
				break
			}
			for _, o := range out.Algos {
				// The sampler only draws healthy in-mesh endpoints, so
				// Route cannot fail.
				res, _ := snap.Route(o.Algo, s, d, opt)
				if !res.Delivered {
					// No length to compare: counts against the success
					// and delivery rates only.
					emit(o.Shortest, 0)
					emit(o.Delivered, 0)
					continue
				}
				shortest := 0.0
				if int32(res.Hops) == optimal {
					shortest = 100
				}
				emit(o.Shortest, shortest)
				emit(o.Delivered, 100)
				// s != d, so optimal >= 1.
				emit(o.RelErr, float64(res.Hops-int(optimal))/float64(optimal))
				emit(o.Hops, float64(res.Hops))
				emit(o.Detours, float64(res.DetourHops))
			}
		}
	})
	return out, err
}

// avgs tables the AVG of one quantity for each of algos.
func avgs(algos []Outcomes, quantity func(Outcomes) *stats.Series, digits int) *stats.Table {
	t := &stats.Table{XLabel: "faults", Digits: digits}
	for _, o := range algos {
		t.Columns = append(t.Columns, stats.Column{Series: quantity(o), Reduction: stats.Avg})
	}
	return t
}

// Fig5d is Figure 5(d): the percentage of routings that achieve the
// shortest path, for RB1, RB2, and RB3.
func (r *Routed) Fig5d() *stats.Table {
	return avgs(r.Algos[1:], func(o Outcomes) *stats.Series { return o.Shortest }, 0)
}

// Fig5e is Figure 5(e): the relative error of the achieved path length to
// the shortest path, for E-cube, RB1, RB2, and RB3.
func (r *Routed) Fig5e() *stats.Table {
	return avgs(r.Algos, func(o Outcomes) *stats.Series { return o.RelErr }, 4)
}

// Delivery is an auxiliary table (not in the paper) reporting the
// percentage of delivered walks per algorithm; the paper assumes delivery
// always succeeds, and this table quantifies how close the implementation
// comes (testdata/fig5_quick.golden records it at quick scale).
func (r *Routed) Delivery() *stats.Table {
	return avgs(r.Algos, func(o Outcomes) *stats.Series { return o.Delivered }, 0)
}
