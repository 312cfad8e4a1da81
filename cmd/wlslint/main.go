// Command wlslint runs the repository's static-analysis suite
// (internal/lint) over module packages:
//
//	go run ./cmd/wlslint ./...                        # whole module
//	go run ./cmd/wlslint ./internal/store             # one package
//	go run ./cmd/wlslint -list                        # describe the analyzers
//	go run ./cmd/wlslint -json ./...                  # machine-readable output
//
// It prints one line per diagnostic (file:line:col: message [analyzer])
// and exits 1 when any are found, or when a pattern matches no package.
// See DESIGN.md "Determinism & lint rules" for what the rules enforce and
// how to suppress a finding.
//
// The whole module is always analyzed regardless of the package patterns
// — cross-package analyzers (lockorder, goleak, lockheld, unreached) need
// facts or callers from every package — but only diagnostics in the
// selected packages are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wls/internal/lint"
)

// jsonDiagnostic is the -json output shape, one object per finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array instead of text lines")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wlslint [-list] [-json] [packages]\n\npackages are ./-relative patterns; ./... (the default) means the whole module\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Default()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selectedDir := map[string]bool{}
	for _, pat := range patterns {
		n := 0
		for _, pkg := range pkgs {
			if matches(loader, cwd, pkg, pat) {
				selectedDir[pkg.Dir] = true
				n++
			}
		}
		if n == 0 {
			fatal(fmt.Errorf("no packages match %s", pat))
		}
	}

	// Facts flow across the whole module, so always analyze everything
	// and filter the report to the requested packages afterwards.
	var diags []lint.Diagnostic
	for _, d := range lint.Run(pkgs, analyzers) {
		if selectedDir[filepath.Dir(d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     relTo(cwd, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s [%s]\n", relTo(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wlslint: %d diagnostic(s) in %d package(s)\n", len(diags), len(selectedDir))
		os.Exit(1)
	}
}

// relTo renders filename relative to dir when it lies underneath it.
func relTo(dir, filename string) string {
	if rel, err := filepath.Rel(dir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}

// matches reports whether pkg matches the ./-relative or import-path
// pattern pat. A trailing /... matches the prefix recursively, mirroring
// the go tool.
func matches(loader *lint.Loader, cwd string, pkg *lint.Package, pat string) bool {
	if pat == "all" || pat == loader.Module+"/..." {
		return true
	}
	if strings.HasPrefix(pat, loader.Module) {
		// Import-path pattern.
		if trimmed, ok := strings.CutSuffix(pat, "/..."); ok {
			return pkg.Path == trimmed || strings.HasPrefix(pkg.Path, trimmed+"/")
		}
		return pkg.Path == pat
	}
	// Directory pattern, relative to the current directory.
	base, recursive := strings.CutSuffix(pat, "/...")
	if base == "" {
		base = "."
	}
	abs := base
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(cwd, base)
	}
	abs = filepath.Clean(abs)
	return pkg.Dir == abs || recursive && strings.HasPrefix(pkg.Dir, abs+string(filepath.Separator))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wlslint:", err)
	os.Exit(1)
}
