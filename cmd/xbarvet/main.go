// Command xbarvet runs the project's invariant analyzers (package
// internal/analysis) over module packages: depguard, clockdiscipline,
// seededrand, metricnames, errtaxonomy, ctxfirst, lanegate, testonly
// (which judges only a whole-module load). It is the static-analysis
// companion to go vet — the conventions the repo's correctness story
// rests on, machine-checked.
//
// Usage:
//
//	xbarvet [-json] [-run regexp] [-list] [packages]
//
// Packages are module-root-relative directories or /... patterns;
// the default is ./... from the current directory's module. Exit
// status: 0 clean, 1 findings (or type errors — a run over a broken
// tree is not a clean bill), 2 usage or load failure.
//
// Suppress a finding with a trailing or preceding line comment
// `//xbarvet:ignore <reason>`; a reasonless ignore is itself reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"nanoxbar/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbarvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the full result as JSON instead of text diagnostics")
	runFilter := fs.String("run", "", "run only analyzers whose name matches this regexp")
	list := fs.Bool("list", false, "list the analyzers and their invariants, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: xbarvet [-json] [-run regexp] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fmt.Fprintf(stderr, "xbarvet: bad -run regexp: %v\n", err)
			return 2
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(stderr, "xbarvet: -run %q matches no analyzers\n", *runFilter)
			return 2
		}
		analyzers = kept
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := analysis.NewLoader("")
	if err != nil {
		fmt.Fprintf(stderr, "xbarvet: %v\n", err)
		return 2
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "xbarvet: %v\n", err)
		return 2
	}
	res := analysis.Run(l, pkgs, analyzers)

	if *jsonOut {
		out, err := res.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "xbarvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d.String())
		}
	}
	for _, te := range res.TypeErrors {
		fmt.Fprintf(stderr, "xbarvet: type error: %s\n", te)
	}
	if len(res.Diagnostics) > 0 || len(res.TypeErrors) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "xbarvet: %d finding(s) across %d package(s)\n",
				len(res.Diagnostics), res.Packages)
		}
		return 1
	}
	return 0
}
