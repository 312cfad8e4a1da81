package wls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealTests holds the prose to the tree: every Test…,
// Benchmark… or Fuzz… name in backticks in DESIGN.md, EXPERIMENTS.md and
// README.md is a function some _test.go file declares. A name followed by
// `*`, or inside a `-bench=` pattern, stands for every function it
// prefixes. Fenced code blocks are not inline names and are skipped.
func TestDocsNameRealTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`[^`]+`")
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*(\*?)`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(fence.ReplaceAllString(string(text), ""), -1) {
			for _, m := range name.FindAllStringSubmatch(s, -1) {
				n, prefix := strings.TrimSuffix(m[0], "*"), m[1] == "*" || strings.Contains(s, "-bench=")
				if !declaredAs(declared, n, prefix) {
					t.Errorf("%s names %s in %s, and no test function matches it", doc, n, s)
				}
			}
		}
	}
}

func declaredAs(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// TestDocsQuoteGatesAsPinned holds DESIGN.md's figures to the gates: every
// `gate…` name it quotes is a constant some _test.go file declares, and a
// figure beside it — "`gateX` = N" in prose, or in a table the next cell,
// one figure per name for "`gateX` / `gateY` | a / b" — is that constant's
// value, so a re-pinned gate cannot leave a stale number behind.
func TestDocsQuoteGatesAsPinned(t *testing.T) {
	gates := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if decl, ok := n.(*ast.GenDecl); ok && decl.Tok == token.CONST {
				for _, spec := range decl.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if lit, ok := valueAt(vs, i).(*ast.BasicLit); ok && gateName.MatchString(name.Name) {
							gates[name.Name] = lit.Value
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := regexp.MustCompile("`(" + gatePattern + ")`( = [0-9]+(?:\\.[0-9]+)?)?")
	checked := 0
	check := func(line, name, figure string) {
		checked++
		if want, ok := gates[name]; ok && figure != want {
			t.Errorf("DESIGN.md quotes %s as %s, the constant is %s: %s", name, figure, want, line)
		}
	}
	for _, line := range strings.Split(string(text), "\n") {
		cells := strings.Split(line, "|")
		for i, cell := range cells {
			var inTable []string
			for _, m := range quoted.FindAllStringSubmatch(cell, -1) {
				if _, ok := gates[m[1]]; !ok {
					t.Errorf("DESIGN.md names %s, which no test declares: %s", m[1], line)
				}
				if m[2] != "" {
					check(line, m[1], strings.TrimPrefix(m[2], " = "))
				} else if strings.HasPrefix(line, "|") {
					inTable = append(inTable, m[1])
				}
			}
			if len(inTable) == 0 {
				continue
			}
			var figures []string
			if i+1 < len(cells) {
				figures = strings.Split(strings.TrimSpace(cells[i+1]), " / ")
			}
			if len(figures) != len(inTable) {
				t.Errorf("DESIGN.md row gives %d figures for %v: %s", len(figures), inTable, line)
				continue
			}
			for j, name := range inTable {
				check(line, name, figures[j])
			}
		}
	}
	if checked < len(gates)/2 {
		t.Errorf("DESIGN.md quotes %d gate figures for %d gates", checked, len(gates))
	}
}

const gatePattern = `gate[A-Z]\w*`

var gateName = regexp.MustCompile("^" + gatePattern + "$")

func valueAt(vs *ast.ValueSpec, i int) ast.Expr {
	if i < len(vs.Values) {
		return vs.Values[i]
	}
	return nil
}
