// Package determinism flags nondeterminism sources in decision-path
// packages: wall-clock reads, the global math/rand generator, and
// iteration over maps (whose order varies run to run and can leak
// into scheduling decisions or output).
//
// The contract it enforces is the repo's core guarantee: two runs of
// the same workload produce byte-identical decision logs and goldens.
// Escapes: //simvet:wallclock on a statement or function for reads
// that never reach decisions or committed output (probe timestamps,
// progress meters), //simvet:ordered for map ranges that sort their
// results before use or are provably order-insensitive (pure
// accumulation into commutative aggregates).
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag time.Now, global math/rand, and map iteration in decision-path packages " +
		"(escapes: //simvet:wallclock, //simvet:ordered)",
	Run: run,
}

// decisionPaths are the import-path suffixes of packages whose code
// can reach scheduling decisions or committed output. Packages outside
// this set (cmd wiring, analysis tooling) are exempt.
var decisionPaths = []string{
	"internal/sched",
	"internal/slurm",
	"internal/sim",
	"internal/apps",
	"internal/sweep",
	"internal/metrics",
	"internal/workload",
	"internal/obs",
}

// InScope reports whether the import path belongs to a decision-path
// package.
func InScope(importPath string) bool {
	for _, suffix := range decisionPaths {
		if importPath == suffix || strings.HasSuffix(importPath, "/"+suffix) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !InScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		f := file
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, f, n, stack)
			case *ast.RangeStmt:
				checkRange(pass, f, n, stack)
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock reads and global math/rand use.
func checkCall(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, stack []ast.Node) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on a seeded *rand.Rand or
	// a time.Timer are exactly the sanctioned alternatives.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" && !pass.Annotated(file, stack, "wallclock") {
			pass.Reportf(call.Pos(),
				"time.Now in decision-path package %s: virtual time must come from the sim engine (//simvet:wallclock to allow)",
				pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (rand.New, rand.NewSource, ...) build the owned,
		// seeded generator the contract asks for; only the package-level
		// draw/seed functions touch the shared global state.
		if strings.HasPrefix(fn.Name(), "New") {
			return
		}
		pass.Reportf(call.Pos(),
			"global math/rand.%s in decision-path package %s: use a seeded *rand.Rand so replays are reproducible",
			fn.Name(), pass.Pkg.Name())
	}
}

// checkRange flags iteration over map-typed values.
func checkRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Annotated(file, stack, "ordered") {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration in decision-path package %s: order varies run to run — sort keys first, or mark //simvet:ordered with a reason",
		pass.Pkg.Name())
}
