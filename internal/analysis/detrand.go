package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterministicPkgs names the packages whose output must be a pure
// function of their inputs: the study pipeline's resume and
// parallel-equals-serial guarantees rest on them. A package is covered
// when its import path ends in one of these elements (so the testdata
// fixtures match too).
var DeterministicPkgs = []string{
	"sim", "fleet", "fleet/shard", "fleet/store", "metrics", "experiment",
	"sched", "scenario", "soc", "randsrc",
}

// wallClockFuncs are the time-package functions that read the wall clock
// or schedule against it — every one of them makes a run irreproducible.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand constructors that build explicitly
// seeded generators — the only sanctioned route to randomness in a
// deterministic package. Everything else in the package draws from the
// global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// DetRand forbids wall-clock reads and global math/rand draws in the
// deterministic packages. Randomness must flow through an explicitly
// seeded *rand.Rand so equal seeds reproduce equal traces.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid wall clocks and global math/rand in deterministic packages",
	Run:  runDetRand,
}

// isDeterministicPkg reports whether the import path names one of the
// byte-determinism-critical packages.
func isDeterministicPkg(path string) bool {
	for _, p := range DeterministicPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

func runDetRand(pass *Pass) {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(pass.Info, sel.X)
			if pn == nil {
				return true
			}
			// Only package-scope functions matter: method calls on an
			// explicitly constructed *rand.Rand resolve through a value,
			// not a PkgName, and type names are not draws.
			if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "time.%s in deterministic package %s: wall-clock state breaks byte-determinism; derive times from the simulation clock", sel.Sel.Name, pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "rand.%s in deterministic package %s draws from the global source; use an explicitly seeded *rand.Rand", sel.Sel.Name, pass.Pkg.Name())
				}
			}
			return true
		})
	}
}
