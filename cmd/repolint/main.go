// Command repolint prints the findings of the repository's lint suite and,
// with -fix, applies their safe suggested fixes in place. It runs the same
// gate as the root audit test (lint.Audit): the full suite over one load of
// the whole module, tests included, so run it from the module root.
//
// Usage:
//
//	repolint [-fix]
//
// With -fix, the suggested fixes (such as inserting the missing sort after
// a map-keys loop) are applied and the suite is run again; the exit status
// reflects the findings that remain. A finding can be suppressed at a
// specific site with a justified directive on or above the offending line
// (a directive on its own line governs the whole following declaration or
// statement, grouped var/const blocks included):
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	fix := flag.Bool("fix", false, "apply safe suggested fixes in place, then re-lint")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repolint [-fix]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	findings, err := lint.Audit(".")
	if err == nil && *fix && len(findings) > 0 {
		findings, err = fixAndRelint(findings)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// fixAndRelint applies every suggested fix and, if any edit landed, audits
// the module again so the result reflects the fixed sources.
func fixAndRelint(findings []lint.Finding) ([]lint.Finding, error) {
	applied, err := lint.ApplyFixes(findings)
	if err != nil {
		return nil, fmt.Errorf("applying fixes: %v", err)
	}
	if applied == 0 {
		return findings, nil
	}
	fmt.Fprintf(os.Stderr, "repolint: applied %d fix(es); re-linting\n", applied)
	return lint.Audit(".")
}
