// Command mobilint is the repo's own static-analysis gate: it loads
// every package of the module from source (stdlib-only — go/ast and
// go/types, no export data, no network) and runs the project-specific
// analyzers that enforce byte-determinism and the hot-path allocation
// diet. Findings print as file:line: analyzer: message and the exit
// status is non-zero when any survive.
//
// Usage:
//
//	mobilint [-only detrand,maporder] [-skip hotalloc] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Suppress a documented false positive with a trailing or preceding
// comment: //mobilint:ignore <reason>.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mobicore/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args (flags, then package
// patterns), prints findings to stdout and problems to stderr, and
// returns the exit status — 0 clean, 1 findings, 2 a usage or load error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := fs.String("skip", "", "comma-separated analyzers to skip")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mobilint [flags] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	analyzers, err := analysis.Select(*only, *skip)
	if err != nil {
		fmt.Fprintln(stderr, "mobilint:", err)
		return 2
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(stderr, "mobilint: selection leaves no analyzers to run")
		return 2
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "mobilint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "mobilint:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "mobilint:", err)
		return 2
	}

	findings := analysis.RunAnalyzers(pkgs, analyzers)
	for _, f := range findings {
		rel, err := filepath.Rel(modRoot, f.Position.Filename)
		if err == nil {
			f.Position.Filename = rel
		}
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "mobilint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
