package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SnapshotMutConfig parameterizes the snapshotmut analyzer so fixtures
// can exercise it against fake package trees.
type SnapshotMutConfig struct {
	// ProtectedTypes are qualified type names ("import/path.Name") whose
	// fields are immutable once a snapshot publishes.
	ProtectedTypes []string
	// AllowedPkgs are import-path prefixes where writes are legal: the
	// build/rebuild packages that construct snapshots before publication.
	AllowedPkgs []string
}

// DefaultSnapshotMut guards the engine's snapshot contract: a
// routing.Analysis (and the MCC/info/labeling state hanging off it) is
// immutable once built, shared via atomic.Pointer, and read
// lock-free by every concurrent Route. Only the build/rebuild packages
// may write these fields; a write anywhere else (engine, server, eval,
// cmd) would corrupt a published snapshot under readers' feet.
var DefaultSnapshotMut = SnapshotMutConfig{
	ProtectedTypes: []string{
		"repro/internal/routing.Analysis",
		"repro/internal/mcc.Set",
		"repro/internal/mcc.MCC",
		"repro/internal/info.Store",
		"repro/internal/info.Triple",
		"repro/internal/labeling.Grid",
	},
	AllowedPkgs: []string{
		"repro/internal/routing",
		"repro/internal/mcc",
		"repro/internal/info",
		"repro/internal/labeling",
	},
}

// NewSnapshotMut builds the snapshotmut analyzer: it flags assignments
// and ++/-- through fields of the protected snapshot types from any
// package outside the allowed build packages.
func NewSnapshotMut(cfg SnapshotMutConfig) *Analyzer {
	protected := make(map[string]bool, len(cfg.ProtectedTypes))
	for _, t := range cfg.ProtectedTypes {
		protected[t] = true
	}
	a := &Analyzer{
		Name: "snapshotmut",
		Doc:  "flags writes to published-snapshot state outside the build packages",
	}
	a.Run = func(pass *Pass) error {
		for _, prefix := range cfg.AllowedPkgs {
			if pass.Pkg.Path == prefix || strings.HasPrefix(pass.Pkg.Path, prefix+"/") {
				return nil
			}
		}
		check := func(lhs ast.Expr, pos token.Pos) {
			if name, field, ok := protectedFieldWrite(pass, lhs, protected); ok {
				pass.Reportf(pos, "write to %s.%s outside the snapshot build packages (snapshots are immutable once built; allowed: %s)",
					name, field, strings.Join(cfg.AllowedPkgs, ", "))
			}
		}
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						check(lhs, st.TokPos)
					}
				case *ast.IncDecStmt:
					check(st.X, st.TokPos)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// protectedFieldWrite reports whether writing through lhs stores into a
// field of a protected type. It unwraps index, slice, star, and paren
// expressions so `a.Grid().cells[i] = v`, `set.Items[k].X0 = v`, and
// `(*st).F = v` all resolve to the underlying field selection.
func protectedFieldWrite(pass *Pass, lhs ast.Expr, protected map[string]bool) (typeName, field string, ok bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if sel, found := pass.Pkg.Info.Selections[e]; found && sel.Kind() == types.FieldVal {
				if n := namedOf(sel.Recv()); n != nil && protected[qualifiedName(n)] {
					return qualifiedName(n), e.Sel.Name, true
				}
			}
			// A selector that is not a protected-field selection may
			// still wrap one deeper in ("a.mccs.Items[i] = v"): keep
			// descending through the receiver chain.
			lhs = e.X
		default:
			return "", "", false
		}
	}
}
