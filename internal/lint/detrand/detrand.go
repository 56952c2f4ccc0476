// Package detrand implements the dwarfvet analyzer defending the
// reproduction's "bitwise-identical at any worker count" claim: in the
// determinism-critical packages, every random draw must come from an
// explicitly seeded *rand.Rand and wall-clock reads must be confined to
// declared seams.
//
// It flags, inside the scoped packages (-pkgs):
//
//   - any use of a math/rand or math/rand/v2 package-level random
//     function (rand.Intn, rand.Float64, rand.Shuffle, rand.Seed, ...):
//     the global generator is seeded per-process, so forests, schedules
//     and datasets drawn from it differ run to run and across worker
//     interleavings. Constructors (New, NewSource, NewZipf, NewPCG,
//     NewChaCha8) are allowed — they are how seeded generators are
//     built. The classic unseeded-constructor shape
//     rand.New(rand.NewSource(time.Now().UnixNano())) is caught through
//     its time.Now operand.
//
//   - any use of time.Now / time.Since / time.Until: wall-clock seams
//     (event timestamps, span durations, test deadlines) are legitimate
//     but must be explicit — each such site carries a
//     //lint:allow detrand <reason> annotation, which is the allowlist
//     the invariant demands.
package detrand

import (
	"go/ast"
	"go/types"

	"opendwarfs/internal/cli"
	"opendwarfs/internal/lint/analysis"
	"opendwarfs/internal/lint/lintutil"
)

// DefaultScope is the comma-separated package scope: the packages whose
// outputs must be bitwise-deterministic — prediction, scheduling,
// simulation, fault injection, the store, the harness, and the dataset
// generators (data, dwarfs) they all consume. The telemetry layer is
// in scope too: the series recorder's sole wall-clock read is an
// annotated injection seam (fake clocks everywhere in tests), and the
// slo engine is clock-free by construction (timestamps arrive as Eval
// arguments) — the check keeps both that way.
const DefaultScope = "predict,sched,sim,faults,store,harness,data,dwarfs,series,slo"

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbids global math/rand and unannotated wall-clock reads in determinism-critical packages\n\n" +
		"Draw randomness from a seeded *rand.Rand; annotate legitimate\n" +
		"wall-clock seams with //lint:allow detrand <reason>.",
	Run: run,
}

func init() {
	Analyzer.Flags.String("pkgs", DefaultScope,
		"comma-separated package scope (path elements or subtrees) the check applies to")
}

// seededConstructors are the math/rand package-level functions that
// build generators rather than draw from the global one.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	scope := cli.Split(pass.Analyzer.Flags.Lookup("pkgs").Value.String())
	if !lintutil.InScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only package-qualified references (rand.X, time.X), not
			// method calls on values.
			if id, ok := sel.X.(*ast.Ident); !ok {
				return true
			} else if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); !isPkg {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !seededConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"use of global %s.%s in determinism-critical package %s: draw from an explicitly seeded *rand.Rand instead",
						fn.Pkg().Name(), fn.Name(), pass.Pkg.Name())
				}
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(),
						"wall-clock read time.%s in determinism-critical package %s: confine to a declared seam via //lint:allow detrand <reason>",
						fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
