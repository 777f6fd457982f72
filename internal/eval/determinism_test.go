package eval

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/stats"
)

// detCfg is a trimmed Quick sweep: small enough to run four times in a
// test, wide enough to cross several sweep points and exercise the routed
// sweep's full pipeline (connected-set draw, pair sampling, all four
// algorithms).
func detCfg(workers int) Config {
	cfg := Quick()
	cfg.MeshSize = 20
	cfg.FaultCounts = []int{0, 30, 60}
	cfg.Trials = 3
	cfg.Pairs = 6
	cfg.Workers = workers
	return cfg
}

// panel is one Figure 5 table and its name.
type panel struct {
	name string
	tbl  *stats.Table
}

// panels runs every Figure 5 panel under cfg in meshfig's order: the
// three cheap runners, then the three views of one routed sweep.
func panels(t *testing.T, cfg Config) []panel {
	t.Helper()
	r := route(t, cfg)
	return []panel{
		{"Fig5a", run(t, Fig5a, cfg)}, {"Fig5b", run(t, Fig5b, cfg)}, {"Fig5c", run(t, Fig5c, cfg)},
		{"Fig5d", r.Fig5d()}, {"Fig5e", r.Fig5e()}, {"Delivery", r.Delivery()},
	}
}

// TestTablesDeterministicAcrossRuns locks repeat-run determinism: the same
// configuration must render byte-identical tables twice in a row.
func TestTablesDeterministicAcrossRuns(t *testing.T) {
	first, second := panels(t, detCfg(2)), panels(t, detCfg(2))
	for i, p := range first {
		if a, b := p.tbl.Render(), second[i].tbl.Render(); a != b {
			t.Errorf("%s differs across identical runs:\n--- first\n%s--- second\n%s", p.name, a, b)
		}
	}
}

// TestTablesDeterministicAcrossWorkerCounts locks in the per-worker-RNG
// design: every (sweep point, trial) derives its own RNG from Config.Seed
// and samples are merged in serial order, so the rendered table must be
// byte-identical at workers=1 and workers=N — for the cheap panels and the
// routed sweep alike, under the paper's uniform faults and under
// clustered ones.
func TestTablesDeterministicAcrossWorkerCounts(t *testing.T) {
	// Workers are capped at GOMAXPROCS; raise it so that workers=8 runs
	// eight trials at once on any runner.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	clustered := func(workers int) Config {
		cfg := detCfg(workers)
		cfg.Gen = fault.Clustered{}
		return cfg
	}
	for _, in := range []struct {
		name string
		cfg  func(workers int) Config
	}{{"uniform", detCfg}, {"clustered", clustered}} {
		serial, pooled := panels(t, in.cfg(1)), panels(t, in.cfg(8))
		for i, p := range serial {
			a, b := p.tbl.Render(), pooled[i].tbl.Render()
			if a != b {
				t.Errorf("%s (%s faults) differs between workers=1 and workers=8:\n--- serial\n%s--- pooled\n%s",
					p.name, in.name, a, b)
			}
			if len(a) == 0 {
				t.Errorf("%s (%s faults) rendered empty", p.name, in.name)
			}
		}
	}
}

// TestCSVDeterministicAcrossWorkerCounts covers the CSV renderer too — the
// byte-identity contract is on the emitted artifacts, not one format.
func TestCSVDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	serial := route(t, detCfg(1)).Fig5e().RenderCSV()
	pooled := route(t, detCfg(4)).Fig5e().RenderCSV()
	if serial != pooled {
		t.Errorf("Fig5e CSV differs between worker counts:\n--- serial\n%s--- pooled\n%s",
			serial, pooled)
	}
}
