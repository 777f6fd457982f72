// Command meshsim is the free-form sweep driver: it routes many random
// pairs over many random fault configurations and reports per-algorithm
// delivery, optimality, and cost statistics, with every knob exposed.
//
// Routing runs on the concurrent engine (internal/engine): each trial
// builds one immutable analysis snapshot and the sampled pairs stream
// through a worker pool sized by -workers. Interrupting (ctrl-C) cancels
// the in-flight batch promptly and prints the partial aggregates.
//
// Usage:
//
//	meshsim [-n 100] [-faults 1500] [-trials 5] [-pairs 50] [-seed 1]
//	        [-gen uniform|clustered|blocks] [-policy diagonal|xfirst|yfirst]
//	        [-workers 0] [-cpuprofile routing.pprof] [-memprofile mem.pprof]
//
// The profiling flags write pprof files covering the sweep (`go tool
// pprof` reads them) — the supported way to see where routing time and
// steady-state allocations go at any scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/spath"
	"repro/internal/stats"
)

func main() {
	n := flag.Int("n", 100, "mesh side length")
	nFaults := flag.Int("faults", 1500, "faults per configuration")
	trials := flag.Int("trials", 5, "random configurations")
	pairs := flag.Int("pairs", 50, "routed pairs per configuration")
	seed := flag.Int64("seed", 1, "base seed")
	genName := flag.String("gen", "uniform", "fault generator: uniform, clustered, blocks")
	policyName := flag.String("policy", "diagonal", "adaptive policy: diagonal, xfirst, yfirst")
	workers := flag.Int("workers", 0, "routing worker pool size (0 = GOMAXPROCS; capped at GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	flag.Parse()

	// Validate flag values before starting any profile: os.Exit bypasses
	// the Stop/write defers and would leave a truncated profile behind.
	gens := map[string]fault.Generator{
		"uniform": fault.Uniform{}, "clustered": fault.Clustered{}, "blocks": fault.Blocks{},
	}
	gen, ok := gens[*genName]
	if !ok {
		fmt.Fprintf(os.Stderr, "meshsim: unknown generator %q\n", *genName)
		os.Exit(2)
	}
	policies := map[string]routing.Policy{
		"diagonal": routing.PolicyDiagonal, "xfirst": routing.PolicyXFirst, "yfirst": routing.PolicyYFirst,
	}
	policy, ok := policies[*policyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "meshsim: unknown policy %q\n", *policyName)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "meshsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshsim: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle steady-state live objects before the snapshot
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "meshsim: -memprofile: %v\n", err)
		}
	}()

	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSignals()

	algos := []routing.Algo{routing.Ecube, routing.RB1, routing.RB2, routing.RB3}
	type agg struct {
		routed, delivered, shortest int
		hops, detours               stats.Accumulator
	}
	perAlgo := map[routing.Algo]*agg{}
	for _, al := range algos {
		perAlgo[al] = &agg{}
	}

	m := mesh.Square(*n)
	for trial := 0; trial < *trials; trial++ {
		r := rand.New(rand.NewSource(*seed + int64(trial)))
		f, ok := fault.GenerateConnected(gen, m, *nFaults, r, 25)
		if !ok {
			fmt.Fprintf(os.Stderr, "meshsim: trial %d: no connected configuration at %d faults; skipping\n", trial, *nFaults)
			continue
		}
		snap := engine.NewSnapshot(f, engine.Options{})
		a := snap.Analysis()
		oracle := snap.Oracle() // per-trial BFS cache; pairs sharing endpoints reuse fields
		// Sample the trial's pairs sequentially (the RNG stream is part of
		// the reproducible configuration), then fan the routing out.
		var batch []engine.Pair
		var optimal []int32
		for p := 0; p < *pairs; p++ {
			for attempt := 0; attempt < 200; attempt++ {
				s := mesh.C(r.Intn(*n), r.Intn(*n))
				d := mesh.C(r.Intn(*n), r.Intn(*n))
				o := mesh.OrientFor(s, d)
				if s == d || !a.Grid(o).Safe(o.To(m, s)) || !a.Grid(o).Safe(o.To(m, d)) {
					continue
				}
				if dist := oracle.Dist(s, d); dist < spath.Infinite {
					batch = append(batch, engine.Pair{S: s, D: d})
					optimal = append(optimal, dist)
					break
				}
			}
		}
		for _, al := range algos {
			// Stream the batch: aggregate each outcome as a worker
			// completes it, no buffered result slice.
			for br := range snap.BatchStream(ctx, al, batch, *workers, routing.Options{Policy: policy}) {
				ag := perAlgo[al]
				ag.routed++
				if br.Err != nil || !br.Res.Delivered {
					continue
				}
				ag.delivered++
				if int32(br.Res.Hops) == optimal[br.Index] {
					ag.shortest++
				}
				ag.hops.Add(float64(br.Res.Hops))
				ag.detours.Add(float64(br.Res.DetourHops))
			}
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "meshsim: interrupted; reporting partial aggregates")
			break
		}
	}

	fmt.Printf("meshsim: %dx%d mesh, %d faults (%s), %d trials x %d pairs, policy %s\n\n",
		*n, *n, *nFaults, *genName, *trials, *pairs, *policyName)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algo\trouted\tdelivered%\tshortest%\tavg hops\tavg detour hops")
	for _, al := range algos {
		ag := perAlgo[al]
		if ag.routed == 0 {
			fmt.Fprintf(w, "%v\t0\t-\t-\t-\t-\n", al)
			continue
		}
		fmt.Fprintf(w, "%v\t%d\t%.1f\t%.1f\t%.1f\t%.2f\n", al, ag.routed,
			100*float64(ag.delivered)/float64(ag.routed),
			100*float64(ag.shortest)/float64(ag.routed),
			ag.hops.Avg(), ag.detours.Avg())
	}
	w.Flush()
}
