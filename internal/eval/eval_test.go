package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/stats"
)

// tiny returns a fast configuration exercising every code path. 70 faults
// on a 20x20 mesh is 17.5% density — proportionally harsher than most of
// the paper's sweep, so thresholds below carry margins
// (testdata/fig5_quick.golden records the measured rates at quick scale).
func tiny() Config {
	return Config{
		MeshSize:    20,
		FaultCounts: []int{0, 30, 70},
		Trials:      4,
		Pairs:       10,
		Seed:        7,
	}
}

// run executes a panel runner under a background context, failing the
// test on any sweep error.
func run(t *testing.T, f func(context.Context, Config) (*stats.Table, error), cfg Config) *stats.Table {
	t.Helper()
	tbl, err := f(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	return tbl
}

// route runs the routed sweep under a background context, failing the
// test on any sweep error.
func route(t *testing.T, cfg Config) *Routed {
	t.Helper()
	r, err := Routing(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	return r
}

func value(t *testing.T, tbl *stats.Table, col int, x int) float64 {
	t.Helper()
	c := tbl.Columns[col]
	acc := c.Series.At(x)
	if acc == nil {
		t.Fatalf("no samples for %s at x=%d", c.Header(), x)
	}
	switch c.Reduction {
	case stats.Max:
		return acc.Max()
	case stats.Avg:
		return acc.Avg()
	}
	t.Fatalf("unexpected reduction")
	return 0
}

func TestFig5aShape(t *testing.T) {
	tbl := run(t, Fig5a, tiny())
	if got := value(t, tbl, 1, 0); got != 0 {
		t.Errorf("disabled area with 0 faults = %v, want 0", got)
	}
	lo := value(t, tbl, 1, 30)
	hi := value(t, tbl, 1, 70)
	if !(hi > lo && lo > 0) {
		t.Errorf("disabled area not increasing: %v then %v", lo, hi)
	}
	// MAX >= AVG pointwise.
	if value(t, tbl, 0, 70) < value(t, tbl, 1, 70) {
		t.Error("MAX below AVG")
	}
}

func TestFig5bShape(t *testing.T) {
	tbl := run(t, Fig5b, tiny())
	if got := value(t, tbl, 1, 0); got != 0 {
		t.Errorf("MCC count with 0 faults = %v", got)
	}
	if value(t, tbl, 1, 70) <= 0 {
		t.Error("no MCCs at 70 faults")
	}
}

func TestFig5cOrdering(t *testing.T) {
	tbl := run(t, Fig5c, tiny())
	// Columns: B1/MAX, B1/AVG, B2/MAX, B2/AVG, B3/MAX, B3/AVG.
	b1 := value(t, tbl, 1, 70)
	b2 := value(t, tbl, 3, 70)
	b3 := value(t, tbl, 5, 70)
	if !(b2 >= b1) {
		t.Errorf("B2 avg %v below B1 avg %v", b2, b1)
	}
	if !(b3 >= b1) {
		t.Errorf("B3 avg %v below B1 avg %v", b3, b1)
	}
	if b2 > 100 || b1 < 0 {
		t.Errorf("percentages out of range: b1=%v b2=%v", b1, b2)
	}
}

func TestFig5dOrdering(t *testing.T) {
	tbl := route(t, tiny()).Fig5d()
	// Columns: RB1, RB2, RB3 average success.
	rb1 := value(t, tbl, 0, 30)
	rb2 := value(t, tbl, 1, 30)
	rb3 := value(t, tbl, 2, 30)
	if rb2 < 98 {
		t.Errorf("RB2 success %v below 98%% at moderate density", rb2)
	}
	if rb2 < rb3-5 || rb3 < rb1-10 {
		t.Errorf("unexpected ordering: rb1=%v rb2=%v rb3=%v", rb1, rb2, rb3)
	}
	if hi := value(t, tbl, 1, 70); hi < 85 {
		t.Errorf("RB2 success %v below 85%% at harsh density", hi)
	}
	// Fault-free: everything is shortest.
	for col := 0; col < 3; col++ {
		if got := value(t, tbl, col, 0); got != 100 {
			t.Errorf("col %d success at 0 faults = %v, want 100", col, got)
		}
	}
}

func TestFig5eShape(t *testing.T) {
	tbl := route(t, tiny()).Fig5e()
	// Columns: E-cube, RB1, RB2, RB3 relative error averages.
	for col := 0; col < 4; col++ {
		if got := value(t, tbl, col, 0); got != 0 {
			t.Errorf("col %d error at 0 faults = %v, want 0", col, got)
		}
	}
	if rb2 := value(t, tbl, 2, 30); rb2 > 0.01 {
		t.Errorf("RB2 relative error %v at moderate density, want ~0", rb2)
	}
	rb2 := value(t, tbl, 2, 70)
	ecube := value(t, tbl, 0, 70)
	if rb2 > 0.06 {
		t.Errorf("RB2 relative error %v too high", rb2)
	}
	if ecube < rb2 {
		t.Errorf("E-cube error %v below RB2 %v", ecube, rb2)
	}
}

func TestDeliveryRates(t *testing.T) {
	tbl := route(t, tiny()).Delivery()
	for col := 0; col < 4; col++ {
		if got := value(t, tbl, col, 70); got < 88 {
			t.Errorf("delivery col %d = %v%%, want >= 88%%", col, got)
		}
		if got := value(t, tbl, col, 30); got < 99 {
			t.Errorf("delivery col %d = %v%% at moderate density", col, got)
		}
	}
}

func TestConfigsAreSane(t *testing.T) {
	d := Default()
	if d.MeshSize != 100 || d.FaultCounts[len(d.FaultCounts)-1] != 3000 {
		t.Error("Default must match the paper's scale")
	}
	q := Quick()
	if q.MeshSize >= d.MeshSize || len(q.FaultCounts) == 0 {
		t.Error("Quick must be smaller than Default")
	}
	// Deterministic rngs per (point, trial).
	a := d.rng(100, 2).Int63()
	b := d.rng(100, 2).Int63()
	if a != b {
		t.Error("rng not deterministic")
	}
	if d.rng(100, 3).Int63() == a {
		t.Error("trial streams must differ")
	}
}

func TestTablesRender(t *testing.T) {
	tbl := run(t, Fig5b, tiny())
	out := tbl.Render()
	if !strings.Contains(out, "MCCs/MAX") || !strings.Contains(out, "MCCs/AVG") {
		t.Errorf("render missing headers:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 { // header + 3 sweep points
		t.Errorf("unexpected table:\n%s", out)
	}
}
