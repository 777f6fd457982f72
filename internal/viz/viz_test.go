package viz

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/labeling"
	"repro/internal/mesh"
)

func TestMapRendersLabelsAndPath(t *testing.T) {
	m := mesh.Square(5)
	g := labeling.Compute(fault.FromCoords(m, mesh.C(2, 2)))
	out := NewMap(m).Labels(g).Path([]mesh.Coord{mesh.C(0, 0), mesh.C(1, 0), mesh.C(1, 1)}).String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 || len(lines[0]) != 5 {
		t.Fatalf("bad dimensions:\n%s", out)
	}
	// Top row first: (2,2) is the middle line's middle character.
	if lines[2][2] != '#' {
		t.Errorf("fault not rendered:\n%s", out)
	}
	if lines[4][0] != 'S' || lines[3][1] != 'D' || lines[4][1] != '*' {
		t.Errorf("path not rendered:\n%s", out)
	}
}

func TestLabelGlyphs(t *testing.T) {
	m := mesh.Square(8)
	// Anti-diagonal pair creating useless and can't-reach nodes.
	g := labeling.Compute(fault.FromCoords(m, mesh.C(4, 5), mesh.C(5, 4)))
	out := NewMap(m).Labels(g).String()
	if !strings.Contains(out, "u") || !strings.Contains(out, "c") {
		t.Errorf("labels missing:\n%s", out)
	}
	// Out-of-mesh set is ignored.
	NewMap(m).Set(mesh.C(-1, 0), 'x')
}
