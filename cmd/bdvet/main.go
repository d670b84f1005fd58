// Command bdvet statically enforces the repo's measurement contracts:
// determinism (detnondet), zero-allocation hot paths (hotpath), interned
// metric handles in steady-state loops (oprefed), and threaded task
// contexts in engine-driven code (ctxbg). See docs/LINT.md.
//
// It runs over package patterns (exit 1 on findings):
//
//	go run ./cmd/bdvet ./...
//	bdvet -analyzers detnondet,hotpath ./internal/datagen/...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/bdbench/bdbench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bdvet", flag.ExitOnError)
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bdvet [-analyzers a,b] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "bdvet statically enforces bdbench's determinism, zero-alloc and\nmetrics-hygiene contracts.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdvet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdvet:", err)
		return 2
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdvet:", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bdvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run bdvet -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
