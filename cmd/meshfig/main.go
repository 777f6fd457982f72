// Command meshfig regenerates the paper's Figure 5 panels as aligned text
// tables (or CSV), at the paper's full scale or the quick scale.
//
// Usage:
//
//	meshfig -fig 5a|5b|5c|5d|5e|delivery|all [-scale full|quick] [-csv]
//	        [-trials N] [-pairs N] [-seed N] [-workers N]
//
// The full scale matches the paper: 100x100 mesh, faults swept 0..3000.
// The three routed panels (5d, 5e, delivery) are views of one routed
// sweep, run at most once per invocation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "panel to regenerate: 5a, 5b, 5c, 5d, 5e, delivery, all")
	scale := flag.String("scale", "quick", "experiment scale: full (paper) or quick")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	trials := flag.Int("trials", 0, "override trials per sweep point")
	step := flag.Int("step", 0, "override fault-count step (full scale only)")
	pairs := flag.Int("pairs", 0, "override routed pairs per trial")
	seed := flag.Int64("seed", 0, "override random seed")
	workers := flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS); tables are identical for any value")
	flag.Parse()

	var cfg eval.Config
	switch *scale {
	case "full":
		cfg = eval.Default()
	case "quick":
		cfg = eval.Quick()
	default:
		fmt.Fprintf(os.Stderr, "meshfig: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *step > 0 && *scale == "full" {
		cfg.FaultCounts = cfg.FaultCounts[:0]
		for n := 0; n <= 3000; n += *step {
			cfg.FaultCounts = append(cfg.FaultCounts, n)
		}
	}
	if *pairs > 0 {
		cfg.Pairs = *pairs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	// Interrupt (ctrl-C) cancels the sweep between trials; the partial
	// table is still rendered.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSignals()

	// The routed panels are views of one sweep, run by the first of them.
	routed := sync.OnceValues(func() (*eval.Routed, error) { return eval.Routing(ctx, cfg) })
	view := func(table func(*eval.Routed) *stats.Table) func(context.Context, eval.Config) (*stats.Table, error) {
		return func(context.Context, eval.Config) (*stats.Table, error) {
			r, err := routed()
			return table(r), err
		}
	}
	panels := []struct {
		name  string
		title string
		run   func(context.Context, eval.Config) (*stats.Table, error)
	}{
		{"5a", "Figure 5(a): % disabled area vs faults", eval.Fig5a},
		{"5b", "Figure 5(b): number of MCCs vs faults", eval.Fig5b},
		{"5c", "Figure 5(c): % nodes in info propagation (B1/B2/B3)", eval.Fig5c},
		{"5d", "Figure 5(d): % shortest-path success (RB1/RB2/RB3)", view((*eval.Routed).Fig5d)},
		{"5e", "Figure 5(e): relative error vs optimum (E-cube/RB1/RB2/RB3)", view((*eval.Routed).Fig5e)},
		{"delivery", "Auxiliary: % delivered walks per algorithm", view((*eval.Routed).Delivery)},
	}
	ran := false
	for _, p := range panels {
		if *fig != "all" && *fig != p.name {
			continue
		}
		ran = true
		start := time.Now()
		tbl, err := p.run(ctx, cfg)
		if *csv {
			fmt.Printf("# %s\n%s\n", p.title, tbl.RenderCSV())
		} else {
			fmt.Printf("%s  [%s scale, %v]\n%s\n", p.title, *scale, time.Since(start).Round(time.Millisecond), tbl.Render())
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "meshfig: interrupted; tables above are partial")
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "meshfig: %v\n", err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "meshfig: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
