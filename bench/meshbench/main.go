// Command meshbench is meshd's end-to-end benchmark. It builds
// ./cmd/meshd, starts it once per set-up on 127.0.0.1:0, drives it from
// this process over at most two closed-loop connections with inputs it
// generated itself, checks every answer, and prints every metric as
// "workload metric value unit" and, as its last line, one JSON object.
//
//	meshbench [-workload all|route-uniform|route-oracle|batch-sweep|churn]
//	          [-seed 1] [-seconds 15] [-trace 0|1] [-runs 1]
//	          [-out .bench_build] [-repo dir] [-json file]
//
// Every run sends the same fixture, bench.NewFixture(bench.Paper, 1);
// -seed orders its traffic (see bench/README.md). -trace 1 reports the
// per-layer metrics instead of the end-to-end ones. -runs N repeats each
// workload with seeds seed..seed+N-1 and prints every metric's median
// and quartiles.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/bench"
)

// options are the parsed flags.
type options struct {
	workloads         []string
	label             string // -workload as given, for the results file name
	seed              int64
	seconds           float64
	trace             bool
	runs              int
	out, repo, result string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.label, "workload", "all", "workload to run: all, or one of "+strings.Join(bench.Workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed: the order the pairs are sent in")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed..seed+runs-1")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the meshd build, daemon files, spans and results")
	flag.StringVar(&o.repo, "repo", "", "repository root holding cmd/meshd (default: the nearest enclosing one)")
	flag.StringVar(&o.result, "json", "", "results file (default: <out>/results-<workload>-s<seed>.json)")
	flag.Parse()

	o.workloads = bench.Workloads
	if o.label != "all" {
		o.workloads = []string{o.label}
	}
	if err := validate(o.workloads, trace, o.runs, o.seconds); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(2)
	}
	o.trace = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		stop()
		os.Exit(1)
	}
}

func validate(workloads []string, trace, runs int, seconds float64) error {
	for _, w := range workloads {
		if !slices.Contains(bench.Workloads, w) {
			return fmt.Errorf("unknown workload %q (want all or one of %s)", w, strings.Join(bench.Workloads, ", "))
		}
	}
	switch {
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	case runs < 1:
		return fmt.Errorf("-runs %d: want at least 1", runs)
	case seconds <= 0:
		return fmt.Errorf("-seconds %g: want a positive duration", seconds)
	}
	return nil
}

func run(ctx context.Context, o options) error {
	if o.repo == "" {
		var err error
		if o.repo, err = findRepo(); err != nil {
			return err
		}
	}
	out, err := filepath.Abs(o.out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "meshbench: "+format+"\n", args...) }
	logf("building meshd from %s", o.repo)
	meshd, err := bench.BuildMeshd(ctx, o.repo, out)
	if err != nil {
		return err
	}
	logf("building the fixture")
	fx := bench.NewFixture(bench.Paper, 1)

	var results []*bench.Result
	for _, w := range o.workloads {
		for i := 0; i < o.runs; i++ {
			cfg := bench.Config{
				Meshd: meshd, Dir: filepath.Join(out, "run-"+w), Fixture: fx, Workload: w,
				Seed: o.seed + int64(i), Duration: time.Duration(o.seconds * float64(time.Second)),
				Warmup: 512, Setups: 3, Trace: o.trace, Logf: logf,
			}
			logf("%s seed %d, trace %v", w, cfg.Seed, o.trace)
			res, err := bench.Run(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			for _, f := range res.Failures {
				logf("%s: FAILED %s", w, f)
			}
			printResult(res)
			if o.trace {
				path := filepath.Join(out, fmt.Sprintf("spans-%s-s%d.jsonl", w, cfg.Seed))
				if err := bench.WriteSpans(path, res.Spans); err != nil {
					return err
				}
				logf("%d spans written to %s", len(res.Spans), path)
			}
			results = append(results, res)
		}
	}
	if o.runs > 1 {
		printSpread(results)
	}
	if o.result == "" {
		o.result = filepath.Join(out, fmt.Sprintf("results-%s-s%d.json", o.label, o.seed))
	}
	if err := writeJSON(o.result, results); err != nil {
		return err
	}
	return printSummary(results)
}

// findRepo returns the nearest directory at or above the working
// directory that holds cmd/meshd.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "meshd")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/meshd at or above the working directory; pass -repo")
		}
		dir = parent
	}
}

func printResult(res *bench.Result) {
	for _, m := range res.Metrics {
		fmt.Printf("%s %s %.6g %s\n", res.Workload, m.Name, m.Value, m.Unit)
	}
	for _, m := range res.Extra {
		fmt.Printf("# %s %s %.6g %s\n", res.Workload, m.Name, m.Value, m.Unit)
	}
	fmt.Printf("# %s correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct(), res.Attempted, res.Failed)
}

// printSpread prints, per workload and metric, the median and quartiles
// over the runs and the quartile spread as a share of the median — the
// statistic each bound in BENCHMARK.json is set against.
func printSpread(results []*bench.Result) {
	fmt.Println("# workload metric median q1 q3 spread unit")
	for _, w := range bench.Workloads {
		var rs []*bench.Result
		for _, r := range results {
			if r.Workload == w {
				rs = append(rs, r)
			}
		}
		if len(rs) == 0 {
			continue
		}
		for j, m := range rs[0].Metrics {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.Metrics[j].Value
			}
			q1, med, q3 := bench.Quartiles(vals)
			fmt.Printf("# %s %s %.6g %.6g %.6g %.4f %s\n", w, m.Name, med, q1, q3, (q3-q1)/med, m.Unit)
		}
	}
}

func writeJSON(path string, results []*bench.Result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the last line: one JSON object with the run's
// correctness, operation counts and metrics. With several runs a metric
// is the median over them; with several workloads its name is prefixed
// by the workload's.
func printSummary(results []*bench.Result) error {
	sum := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	values := map[string][]float64{}
	var names []string
	units := map[string]string{}
	multi := results[0].Workload != results[len(results)-1].Workload
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct()
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if multi {
				name = r.Workload + ":" + m.Name
			}
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	for _, name := range names {
		_, med, _ := bench.Quartiles(values[name])
		sum.Metrics[name] = metricValue{Value: med, Unit: units[name]}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
