// Command simvet runs the repo's contract analyzers (determinism,
// hotpath, scratchcontract, probeguard) over Go packages. It speaks
// two protocols:
//
//   - vettool: `go vet -vettool=$(which simvet) ./...` — cmd/go
//     drives simvet once per package with export data (the CI path);
//   - standalone: `simvet ./...` — simvet shells out to `go list
//     -export` itself and checks every matched package in one
//     process (the interactive path; also `simvet -list`).
//
// Exit status: 0 clean, 1 driver error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
	"repro/internal/analysis/unit"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The vet protocol's probes come before flag parsing: cmd/go
	// invokes `simvet -V=full` and `simvet -flags` bare.
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "--V=full":
			unit.PrintVersion(os.Args[0])
			return 0
		case "-flags", "--flags":
			unit.PrintFlags()
			return 0
		}
	}

	fs := flag.NewFlagSet("simvet", flag.ContinueOnError)
	listOnly := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *listOnly {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := suite.Analyzers
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			a := suite.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "simvet: unknown analyzer %q\n", name)
				return 1
			}
			analyzers = append(analyzers, a)
		}
	}

	rest := fs.Args()
	// vettool mode: cmd/go passes a single *.cfg argument.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unit.Run(rest[0], analyzers)
	}

	// Standalone mode over package patterns.
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	pkgs, err := load.Packages(".", rest...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		return 1
	}
	found := 0
	for _, p := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					found++
					fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", p.Fset.Position(d.Pos), d.Message, a.Name)
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "simvet: %s: %s: %v\n", p.ImportPath, a.Name, err)
				return 1
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "simvet: %d finding(s)\n", found)
		return 2
	}
	return 0
}
