// Command meshsim is the free-form sweep driver: it routes many random
// pairs over many random fault configurations and reports per-algorithm
// delivery, optimality, and cost statistics, with every knob exposed.
//
// It is a front-end over the routed sweep of internal/eval at a single
// fault count: the flags fill an eval.Config, and the fault draw, the
// connectivity rule, the pair sampling and the routing are eval's. Trials
// run on -workers goroutines; results for a fixed seed are identical for
// any worker count. Interrupting (ctrl-C) stops the sweep between trials
// and pairs and prints the partial aggregates. meshsim exits 1 when an
// algorithm routed no pair.
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
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stats"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so the profile defers run before exit.
func run() int {
	n := flag.Int("n", 100, "mesh side length")
	nFaults := flag.Int("faults", 1500, "faults per configuration")
	trials := flag.Int("trials", 5, "random configurations")
	pairs := flag.Int("pairs", 50, "routed pairs per configuration")
	seed := flag.Int64("seed", 1, "base seed")
	genName := flag.String("gen", "uniform", "fault generator: uniform, clustered, blocks")
	policyName := flag.String("policy", "diagonal", "adaptive policy: diagonal, xfirst, yfirst")
	workers := flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS; capped at GOMAXPROCS); results are identical for any value")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	flag.Parse()

	// Validate flag values before starting any profile.
	gens := map[string]fault.Generator{
		"uniform": fault.Uniform{}, "clustered": fault.Clustered{}, "blocks": fault.Blocks{},
	}
	gen, ok := gens[*genName]
	if !ok {
		fmt.Fprintf(os.Stderr, "meshsim: unknown generator %q\n", *genName)
		return 2
	}
	policies := map[string]routing.Policy{
		"diagonal": routing.PolicyDiagonal, "xfirst": routing.PolicyXFirst, "yfirst": routing.PolicyYFirst,
	}
	policy, ok := policies[*policyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "meshsim: unknown policy %q\n", *policyName)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshsim: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "meshsim: -cpuprofile: %v\n", err)
			return 2
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

	cfg := eval.Config{
		MeshSize: *n, FaultCounts: []int{*nFaults}, Trials: *trials, Pairs: *pairs,
		Seed: *seed, Gen: gen, Policy: policy, Workers: *workers,
	}
	routed, err := eval.Routing(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim: interrupted; reporting partial aggregates")
	}

	fmt.Printf("meshsim: %dx%d mesh, %d faults (%s), %d trials x %d pairs, policy %s\n\n",
		*n, *n, *nFaults, *genName, *trials, *pairs, *policyName)
	// avg reads the sweep's one point; a series without samples reads 0.
	avg := func(s *stats.Series) float64 {
		if acc := s.At(*nFaults); acc != nil {
			return acc.Avg()
		}
		return 0
	}
	status := 0
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algo\trouted\tdelivered%\tshortest%\tavg hops\tavg detour hops")
	for _, o := range routed.Algos {
		acc := o.Shortest.At(*nFaults)
		if acc == nil {
			fmt.Fprintf(w, "%v\t0\t-\t-\t-\t-\n", o.Algo)
			status = 1
			continue
		}
		fmt.Fprintf(w, "%v\t%d\t%.1f\t%.1f\t%.1f\t%.2f\n", o.Algo, acc.N(),
			avg(o.Delivered), acc.Avg(), avg(o.Hops), avg(o.Detours))
	}
	w.Flush()
	if status != 0 {
		fmt.Fprintln(os.Stderr, "meshsim: an algorithm routed no pair")
	}
	return status
}
