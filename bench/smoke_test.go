package bench

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, for about a second
// each on the small fixture against a freshly built meshd, and checks that
// every metric BENCHMARK.json names comes out finite, with its unit, and
// that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs meshd")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	dir := t.TempDir()
	meshd, err := BuildMeshd(ctx, "..", dir)
	if err != nil {
		t.Fatal(err)
	}
	fx := NewFixture(Small, 1)
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			res, err := Run(ctx, Config{
				Meshd: meshd, Dir: filepath.Join(dir, w), Fixture: fx, Workload: w, Seed: 1,
				Duration: time.Second, Warmup: 64, Setups: 2, Trace: traced,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct() {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := EndToEnd
			if traced {
				want = PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for i, m := range res.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %d is %+v, want %s in %s, finite", w, traced, i, m, want[i].Name, want[i].Unit)
				}
				if m.Name == "ok_frac" && m.Value != 1 {
					t.Errorf("%s: ok_frac %g", w, m.Value)
				}
			}
		}
	}
}
