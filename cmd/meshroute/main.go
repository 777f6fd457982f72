// Command meshroute routes one packet across a randomly faulted mesh and
// prints the decision trace as an ASCII map, comparing the walked length
// against the BFS optimum. It drives the public API v1 facade: the fault
// configuration commits as one atomic transaction and the routing runs
// under an interruptible context with typed-error reporting.
//
// Usage:
//
//	meshroute [-n 30] [-faults 60] [-seed 1] [-algo rb2] \
//	          [-src x,y] [-dst x,y]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"

	meshroute "repro"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/viz"
)

func parseCoord(s string, def mesh.Coord) mesh.Coord {
	var x, y int
	if _, err := fmt.Sscanf(s, "%d,%d", &x, &y); err != nil {
		return def
	}
	return mesh.C(x, y)
}

func main() {
	n := flag.Int("n", 30, "mesh side length")
	faults := flag.Int("faults", 60, "number of random faults")
	seed := flag.Int64("seed", 1, "fault placement seed")
	algoName := flag.String("algo", "rb2", "algorithm: ecube, rb1, rb2, rb3")
	src := flag.String("src", "", "source as x,y (default 1,1)")
	dst := flag.String("dst", "", "destination as x,y (default n-2,n-2)")
	flag.Parse()

	algos := map[string]meshroute.Algorithm{
		"ecube": meshroute.Ecube, "rb1": meshroute.RB1, "rb2": meshroute.RB2, "rb3": meshroute.RB3,
	}
	algo, ok := algos[*algoName]
	if !ok {
		fmt.Fprintf(os.Stderr, "meshroute: unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}

	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSignals()

	net := meshroute.NewSquare(*n)
	// Draw a configuration and commit it as one transaction: exactly one
	// analysis publication however many faults land. A pair the faults
	// disconnect is reported as unreachable below.
	m := mesh.Square(*n)
	f := fault.Uniform{}.Generate(m, *faults, rand.New(rand.NewSource(*seed)))
	if err := net.Apply(func(tx *meshroute.Tx) error {
		for _, c := range f.Coords() {
			if err := tx.AddFault(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		fmt.Fprintf(os.Stderr, "meshroute: %v\n", err)
		os.Exit(1)
	}

	s := parseCoord(*src, mesh.C(1, 1))
	d := parseCoord(*dst, mesh.C(*n-2, *n-2))
	res, err := net.Route(ctx, meshroute.RouteRequest{Src: s, Dst: d}, meshroute.WithAlgorithm(algo))
	if err != nil {
		var abort *meshroute.ErrAborted
		switch {
		case errors.As(err, &abort):
			// Still render the partial decision trace — the abort case is
			// where the map matters most.
			fmt.Print(viz.NewMap(m).Labels(net.Analysis().Grid(mesh.NE)).Path(abort.Path).String())
			fmt.Printf("\nalgorithm   %v\nfaults      %d (seed %d)\nsource      %v\ndestination %v\n",
				algo, net.FaultCount(), *seed, s, d)
			fmt.Printf("result      UNDELIVERED (%s after %d hops)\n", abort.Reason, abort.Hops)
		case errors.Is(err, meshroute.ErrFaultyEndpoint):
			fmt.Fprintln(os.Stderr, "meshroute: an endpoint is faulty; pick -src/-dst or change -seed")
		case errors.Is(err, meshroute.ErrOutsideMesh):
			fmt.Fprintf(os.Stderr, "meshroute: endpoints %v -> %v outside the %dx%d mesh\n", s, d, *n, *n)
		case errors.Is(err, meshroute.ErrUnreachable):
			fmt.Fprintf(os.Stderr, "meshroute: %v is unreachable from %v in this configuration\n", d, s)
		case errors.Is(err, meshroute.ErrCanceled):
			fmt.Fprintln(os.Stderr, "meshroute: interrupted")
		default:
			fmt.Fprintf(os.Stderr, "meshroute: %v\n", err)
		}
		os.Exit(1)
	}

	v := viz.NewMap(m).Labels(net.Analysis().Grid(mesh.NE)).Path(res.Path)
	fmt.Print(v.String())
	st := net.Stats()
	fmt.Printf("\nalgorithm   %v\nfaults      %d (seed %d)\nsource      %v\ndestination %v\n",
		algo, st.PublishedFaults, *seed, s, d)
	fmt.Printf("hops        %d\noptimal     %d\nshortest    %v\nphases      %d\ndetour hops %d\n",
		res.Hops, res.Oracle.Optimal, res.Oracle.Shortest, res.Phases, res.DetourHops)
	fmt.Printf("manhattan   %v (Manhattan-distance path exists)\n", res.Oracle.ManhattanFeasible)
}
