// Package lintutil holds the small helpers shared by the dwarfvet
// analyzers: package-scope matching for checks that only apply to the
// determinism- or deadlock-critical parts of the tree, and common AST
// predicates.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SplitList parses a comma-separated flag value into its non-empty
// elements.
func SplitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// InScope reports whether a package path falls under any scope entry.
// An entry matches the whole path, a path element, or a subtree root:
// "obs" matches "opendwarfs/internal/obs" and
// "opendwarfs/internal/obs/series"; fixture packages match by
// their single-element path. External test variants ("pkg_test") match
// as their base package.
func InScope(pkgPath string, scopes []string) bool {
	path := strings.TrimSuffix(pkgPath, "_test")
	for _, s := range scopes {
		if path == s ||
			strings.HasSuffix(path, "/"+s) ||
			strings.Contains(path, "/"+s+"/") ||
			strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PkgFunc resolves a call's callee to a package-level function and
// returns it, or nil for methods, builtins, conversions and dynamic
// calls.
func PkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// IsPkg reports whether a package's path is pkg itself or ends in
// "/pkg" — true for both the real import path ("opendwarfs/internal/obs")
// and a fixture stand-in ("obs").
func IsPkg(p *types.Package, pkg string) bool {
	if p == nil {
		return false
	}
	return p.Path() == pkg || strings.HasSuffix(p.Path(), "/"+pkg)
}
