package eval

import (
	"context"
	"testing"

	"repro/internal/stats"
)

// detCfg is a trimmed Quick sweep: small enough to run four times in a
// test, wide enough to cross several sweep points and exercise the routed
// figures' full pipeline (connected-set draw, pair sampling, all four
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

// TestTablesDeterministicAcrossRuns locks repeat-run determinism: the same
// configuration must render byte-identical tables twice in a row.
func TestTablesDeterministicAcrossRuns(t *testing.T) {
	for _, panel := range []struct {
		name string
		run  func(context.Context, Config) (*stats.Table, error)
	}{
		{"Fig5a", Fig5a}, {"Fig5d", Fig5d},
	} {
		ctx := context.Background()
		a, err1 := panel.run(ctx, detCfg(2))
		b, err2 := panel.run(ctx, detCfg(2))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: sweep errors: %v / %v", panel.name, err1, err2)
		}
		first := a.Render()
		second := b.Render()
		if first != second {
			t.Errorf("%s differs across identical runs:\n--- first\n%s--- second\n%s",
				panel.name, first, second)
		}
	}
}

// TestTablesDeterministicAcrossWorkerCounts locks in the per-worker-RNG
// design: every (sweep point, trial) derives its own RNG from Config.Seed
// and samples are merged in serial order, so the rendered table must be
// byte-identical at workers=1 and workers=N — for the cheap panels and the
// full routed sweep alike.
func TestTablesDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, panel := range []struct {
		name string
		run  func(context.Context, Config) (*stats.Table, error)
	}{
		{"Fig5a", Fig5a}, {"Fig5b", Fig5b}, {"Fig5c", Fig5c},
		{"Fig5d", Fig5d}, {"Fig5e", Fig5e}, {"DeliveryRates", DeliveryRates},
	} {
		ctx := context.Background()
		a, err1 := panel.run(ctx, detCfg(1))
		b, err2 := panel.run(ctx, detCfg(8))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: sweep errors: %v / %v", panel.name, err1, err2)
		}
		serial := a.Render()
		pooled := b.Render()
		if serial != pooled {
			t.Errorf("%s differs between workers=1 and workers=8:\n--- serial\n%s--- pooled\n%s",
				panel.name, serial, pooled)
		}
		if len(serial) == 0 {
			t.Errorf("%s rendered empty", panel.name)
		}
	}
}

// TestCSVDeterministicAcrossWorkerCounts covers the CSV renderer too — the
// byte-identity contract is on the emitted artifacts, not one format.
func TestCSVDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	a, err1 := Fig5e(ctx, detCfg(1))
	b, err2 := Fig5e(ctx, detCfg(4))
	if err1 != nil || err2 != nil {
		t.Fatalf("sweep errors: %v / %v", err1, err2)
	}
	serial := a.RenderCSV()
	pooled := b.RenderCSV()
	if serial != pooled {
		t.Errorf("Fig5e CSV differs between worker counts:\n--- serial\n%s--- pooled\n%s",
			serial, pooled)
	}
}
