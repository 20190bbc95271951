// Command sovlint enforces the repo's determinism, hot-path allocation
// and pooled-buffer ownership invariants: a pure-stdlib static-analysis
// driver (go/parser + go/types, no golang.org/x/tools) running the five
// analyzers in internal/lint over every package in the module.
//
// Usage:
//
//	sovlint [-list] [packages...]
//
// Packages are directories or "./..." (the default: every package under
// the module root). Findings print as "file:line:col: [analyzer] message"
// and the exit status is 1 when any survive suppression, 2 on a usage or
// load error. See DESIGN.md §7 for the invariants and the //sovlint
// annotation grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sov/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sovlint [flags] [./... | dirs]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	modRoot, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*lint.Package
	var dirs []string
	all := false
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == modRoot+"/..." {
			all = true
			continue
		}
		dirs = append(dirs, strings.TrimSuffix(arg, string(filepath.Separator)))
	}
	if all {
		pkgs, err = loader.LoadAll()
	} else {
		pkgs, err = loader.LoadDirs(dirs)
	}
	if err != nil {
		fatal(err)
	}

	findings := lint.Run(pkgs, lint.Analyzers())
	for _, line := range lint.Format(findings, modRoot) {
		fmt.Println(line)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sovlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sovlint:", err)
	os.Exit(2)
}
