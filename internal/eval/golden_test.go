package eval

import (
	"os"
	"strings"
	"testing"
)

// TestFig5QuickGolden pins all six Figure 5 panels at Quick() scale to
// testdata/fig5_quick.golden, which is meshfig's output without its
// timings. After a change that moves a figure, regenerate it from the
// repository root with
//
//	go run ./cmd/meshfig -fig all -scale quick | sed 's/  \[quick scale, .*\]$//' > internal/eval/testdata/fig5_quick.golden
//
// and let the diff show the change. The file holds one section per panel
// in meshfig's order: a title line, the table and a blank line. The
// titles are meshfig's and are not compared.
func TestFig5QuickGolden(t *testing.T) {
	if testing.Short() {
		// About 1.5 s, and 10x that under -race; the determinism tests
		// already drive the same sweep pool there.
		t.Skip("full quick-scale sweep of all six panels")
	}
	raw, err := os.ReadFile("testdata/fig5_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(strings.TrimSuffix(string(raw), "\n\n"), "\n\n")
	ps := panels(t, Quick())
	if len(sections) != len(ps) {
		t.Fatalf("golden has %d sections, want %d", len(sections), len(ps))
	}
	for i, p := range ps {
		_, want, _ := strings.Cut(sections[i], "\n")
		if got := strings.TrimSuffix(p.tbl.Render(), "\n"); got != want {
			t.Errorf("%s at quick scale differs from the golden:\n--- got\n%s\n--- golden\n%s", p.name, got, want)
		}
	}
}
