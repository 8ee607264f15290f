// Command oftecvet runs the project's static-analysis suite (internal/lint)
// over the module that contains the working directory: floatcmp, errdrop,
// unitsuffix, nonfinite, ctxleak, seam, hotalloc, lockorder and goroleak.
// It is stdlib-only and gates CI right after go vet, which owns the
// copylocks check:
//
//	go run ./cmd/oftecvet
//
// It takes no flags and no arguments. Test files and testdata directories
// are not analyzed. Findings print one per line as
// "file:line:col: [analyzer] message", with paths relative to the module
// root. Exit status: 0 clean, 1 findings, 2 usage or load error.
//
// Findings are suppressed in source with a trailing or preceding-line
// comment (multi-line statements are covered over their whole extent):
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"oftec/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: oftecvet (no flags or arguments; analyzes the module containing the working directory)")
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "oftecvet:", err)
		return 2
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oftecvet:", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.All())
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "oftecvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
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
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
