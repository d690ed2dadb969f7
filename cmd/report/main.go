// Command report runs the complete evaluation and verifies every
// headline claim of the paper against the measured results, in the
// style of an artifact-evaluation script. It prints a PASS/FAIL table,
// optionally writes it as Markdown, and exits non-zero if any claim's
// direction fails. The claims, their bands and the runs they read live
// in internal/workload's claims table; this command only renders it.
//
// Usage:
//
//	report             # run and print
//	report -md REPORT.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	mdPath := flag.String("md", "", "write the report as Markdown to this file")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	verdicts, err := workload.EvaluateClaims(workload.RunClaims())
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	out := render(verdicts)
	fmt.Print(out)
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(out), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
	}
	for _, v := range verdicts {
		if !v.Pass {
			os.Exit(2)
		}
	}
}

// render formats the verdicts as a Markdown table.
func render(verdicts []workload.Verdict) string {
	var sb strings.Builder
	sb.WriteString("# Replication report\n\n")
	sb.WriteString("| claim | paper | measured | verdict |\n|---|---|---|---|\n")
	pass := 0
	for _, v := range verdicts {
		verdict := "FAIL"
		if v.Pass {
			verdict = "PASS"
			pass++
		}
		fmt.Fprintf(&sb, "| %s (%s): %s | %s | %.1f%s | %s |\n",
			v.ID, v.Source, v.Text, v.Paper, v.Measured, v.Unit, verdict)
	}
	fmt.Fprintf(&sb, "\n%d/%d claims reproduced.\n", pass, len(verdicts))
	return sb.String()
}
